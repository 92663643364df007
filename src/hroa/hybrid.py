"""Hybrid encoder: route each address block to its cheaper representation.

Tall blocks (max_length far beyond the prefix length) compress well as a
single maxLength PDU; short ones are cheaper folded into shared sub-tree
bitmaps.  The split point is the block height threshold: height >=
threshold rides the maxLength path, anything lower is expanded into plain
prefixes and bitmap-encoded.  Threshold 0 therefore means "always
maxLength" and an infinite threshold means "always bitmap".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import wire
from .bmcodec import HangingLevels, SubTreeBlock, decode_block, encode_batch
from .mlcodec import compress_minimal
from .prefix import (
    DEFAULT_EXPANSION_CAP,
    V4,
    V6,
    AddressBlock,
    Prefix,
    block_order,
    expand,
)

DEFAULT_HEIGHT_THRESHOLD = 3


def _default_hanging() -> dict[int, HangingLevels]:
    return {V4: HangingLevels.default(V4), V6: HangingLevels.default(V6)}


def check_wire_fit(hanging: Mapping[int, HangingLevels]) -> None:
    """Raise ValueError unless every profile's sub-trees fit the wire bitmap."""
    for fam in (V4, V6):
        height = hanging[fam].max_height
        if height > wire.MAX_SUBTREE_HEIGHT:
            raise ValueError(
                f"v{fam} profile has a sub-tree of height {height}; "
                f"the wire bitmap holds at most {wire.MAX_SUBTREE_HEIGHT} levels"
            )


@dataclass(frozen=True)
class HybridConfig:
    """Knobs for the hybrid split.

    ``delta_l_threshold`` may be ``math.inf`` (pure bitmap); finite values
    must stay within ``DEFAULT_EXPANSION_CAP`` since sub-threshold blocks
    get expanded.
    """

    delta_l_threshold: float = DEFAULT_HEIGHT_THRESHOLD
    hanging: Mapping[int, HangingLevels] = field(default_factory=_default_hanging)

    def __post_init__(self) -> None:
        if self.delta_l_threshold < 0:
            raise ValueError("threshold must be >= 0")
        if math.isfinite(self.delta_l_threshold):
            if self.delta_l_threshold > DEFAULT_EXPANSION_CAP:
                raise ValueError("threshold exceeds the expansion cap")
        for fam in (V4, V6):
            if fam not in self.hanging:
                raise ValueError(f"no hanging-level profile for v{fam}")


@dataclass(frozen=True)
class HybridPayload:
    """One AS's encoded authorization: maxLength blocks plus bitmap blocks.

    ``blocks`` holds the canonical address blocks the split was made from.
    """

    asn: int
    ml_blocks: tuple[AddressBlock, ...]
    bm_blocks: tuple[SubTreeBlock, ...]
    blocks: tuple[AddressBlock, ...] = ()


def _compress(prefixes) -> list[AddressBlock]:
    """Minimal blocks of a prefix set, one family at a time, in canonical order."""
    by_family: dict[int, list[Prefix]] = {V4: [], V6: []}
    for p in prefixes:
        by_family[p.family].append(p)
    out: list[AddressBlock] = []
    for fam in (V4, V6):
        if by_family[fam]:
            out.extend(compress_minimal(by_family[fam]))
    return out


def _as_blocks(cfg: HybridConfig, items, recompress: bool) -> tuple[AddressBlock, ...]:
    """Normalize the input to canonical address blocks."""
    seq = list(items)
    if not seq:
        raise ValueError("empty authorization set")
    if all(isinstance(x, Prefix) for x in seq):
        return tuple(_compress(seq))
    if not all(isinstance(x, AddressBlock) for x in seq):
        raise TypeError("input must be all prefixes or all address blocks")
    if recompress:
        prefixes: set[Prefix] = set()
        for b in seq:
            prefixes |= expand(b)
        return tuple(_compress(prefixes))
    return tuple(sorted(set(seq), key=block_order))


def hybrid_encode(
    cfg: HybridConfig,
    asn: int,
    items: Iterable[Prefix] | Iterable[AddressBlock],
    recompress: bool = False,
) -> HybridPayload:
    """Encode one AS's authorization set.

    Prefix input is first compressed to minimal blocks; block input is
    taken as-is unless ``recompress`` is set.  Blocks at least
    ``delta_l_threshold`` tall keep their maxLength form, the rest are
    expanded and folded into per-family bitmaps.
    """
    blocks = _as_blocks(cfg, items, recompress)
    ml: list[AddressBlock] = []
    short: dict[int, set[Prefix]] = {V4: set(), V6: set()}
    for b in blocks:
        if b.height >= cfg.delta_l_threshold:
            ml.append(b)
        else:
            short[b.prefix.family] |= expand(b)
    bm: list[SubTreeBlock] = []
    for fam in (V4, V6):
        if short[fam]:
            bm.extend(encode_batch(cfg.hanging[fam], short[fam]))
    return HybridPayload(asn, tuple(ml), tuple(bm), blocks)


def hybrid_decode(cfg: HybridConfig, payload: HybridPayload) -> dict[int, set[Prefix]]:
    """Rebuild {asn: prefixes} from a payload.  Inverse of hybrid_encode."""
    out: set[Prefix] = set()
    for b in payload.ml_blocks:
        out |= expand(b)
    for sb in payload.bm_blocks:
        flag, prefixes = decode_block(cfg.hanging[sb.family], sb)
        if flag:
            raise ValueError("withdrawal block inside an authorization payload")
        out |= prefixes
    return {payload.asn: out}


def prefix_pdus(asn: int, blocks: Iterable[AddressBlock]) -> list[wire.RtrPdu]:
    """One announcing prefix PDU per maxLength block, in canonical block order."""
    return [
        wire.PrefixPdu(wire.ANNOUNCE, b.prefix, b.max_length, asn)
        for b in sorted(blocks, key=block_order)
    ]


def frame_payload(payload: HybridPayload, aggregate: bool = False) -> list[wire.RtrPdu]:
    """The payload's wire PDUs: hroa, or ahroa when ``aggregate`` is set.

    maxLength blocks become prefix PDUs either way.  hroa sends each bitmap
    block as its own sub-tree PDU; ahroa packs them per family, v4 first,
    ids ascending, into as few aggregated PDUs as the PDU length cap allows.
    """
    asn = payload.asn
    pdus = prefix_pdus(asn, payload.ml_blocks)
    if not aggregate:
        pdus.extend(wire.SubTreePdu(b.family, b.id, b.bitmap, asn) for b in payload.bm_blocks)
        return pdus
    for fam in (V4, V6):
        pairs = sorted((b.id, b.bitmap) for b in payload.bm_blocks if b.family == fam)
        cap = wire.agg_capacity(fam)
        for at in range(0, len(pairs), cap):
            pdus.append(wire.SubTreeAggPdu(fam, asn, tuple(pairs[at : at + cap])))
    return pdus


@dataclass(frozen=True)
class SweepCell:
    pdu_count: int
    total_bytes: int


def sweep_parameters(
    inputs: Mapping[int, Iterable[Prefix] | Iterable[AddressBlock]],
    thresholds: Iterable[float],
    level_multiples: Iterable[int],
    aggregate: bool = False,
) -> dict[tuple[float, int], SweepCell]:
    """Total PDU count and bytes for every (threshold, level multiple) pair."""
    table: dict[tuple[float, int], SweepCell] = {}
    materialized = {asn: list(items) for asn, items in inputs.items()}
    for step in level_multiples:
        hanging = {fam: HangingLevels.multiples_of(step, fam) for fam in (V4, V6)}
        check_wire_fit(hanging)
        for thr in thresholds:
            cfg = HybridConfig(delta_l_threshold=thr, hanging=hanging)
            count = 0
            nbytes = 0
            for asn, items in materialized.items():
                for pdu in frame_payload(hybrid_encode(cfg, asn, items), aggregate):
                    count += 1
                    nbytes += len(wire.serialize(pdu))
            table[(thr, step)] = SweepCell(count, nbytes)
    return table
