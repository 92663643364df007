"""Hybrid encoder: route each address block to its cheaper representation.

Tall blocks (max_length far beyond the prefix length) compress well as a
single maxLength PDU; short ones are cheaper folded into shared sub-tree
bitmaps.  The split point is the block height threshold: height >=
threshold rides the maxLength path, anything lower is expanded into plain
prefixes and bitmap-encoded.  Threshold 0 therefore means "always
maxLength" and an infinite threshold means "always bitmap".

This module holds the split's config, each AS's canonical blocks and the
split itself; ``sync.payload_pdus`` frames the result as PDUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping

from . import wire
from .bmcodec import HangingLevels, SubTreeBlock, encode_batch
from .mlcodec import compress_minimal
from .prefix import V4, V6, AddressBlock, Prefix, expand

DEFAULT_HEIGHT_THRESHOLD = 3


# the default profiles, built once: each HybridConfig() gets a new dict of these two
_DEFAULT_HANGING = {V4: HangingLevels.default(V4), V6: HangingLevels.default(V6)}


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

    ``delta_l_threshold`` is a height >= 0, or ``math.inf`` (pure bitmap).
    Every block shorter than it is expanded, and ``prefix.expand`` refuses
    one past its cap, so no threshold needs a cap of its own.
    """

    delta_l_threshold: float = DEFAULT_HEIGHT_THRESHOLD
    hanging: Mapping[int, HangingLevels] = field(default_factory=_DEFAULT_HANGING.copy)

    def __post_init__(self) -> None:
        if not self.delta_l_threshold >= 0:  # NaN included
            raise ValueError("threshold must be >= 0")
        for fam in (V4, V6):
            if fam not in self.hanging:
                raise ValueError(f"no hanging-level profile for v{fam}")
            if self.hanging[fam].family != fam:
                raise ValueError(f"v{fam} is given a v{self.hanging[fam].family} profile")


def expand_all(blocks: Iterable[AddressBlock]) -> set[Prefix]:
    """Every prefix any of the blocks authorizes; refuses a block past the expansion cap."""
    out: set[Prefix] = set()
    for b in blocks:
        out |= expand(b)  # looked up here, where the benchmark's tracer wraps it
    return out


def canonical_blocks(items, recompress: bool = False) -> tuple[AddressBlock, ...]:
    """One AS's canonical address blocks, in canonical order.

    Prefix input is compressed to minimal blocks; block input is taken
    as-is unless ``recompress`` is set.
    """
    seq = list(items)
    if not seq:
        raise ValueError("empty authorization set")
    kinds = set(map(type, seq))
    if all(issubclass(k, Prefix) for k in kinds):
        return tuple(compress_minimal(seq))
    if not all(issubclass(k, AddressBlock) for k in kinds):
        raise TypeError("input must be all prefixes or all address blocks")
    return tuple(compress_minimal(seq) if recompress else sorted(set(seq)))


def hybrid_encode(
    cfg: HybridConfig, blocks: Iterable[AddressBlock]
) -> tuple[tuple[AddressBlock, ...], tuple[SubTreeBlock, ...]]:
    """Split one AS's address blocks into (maxLength blocks, bitmap blocks).

    Blocks at least ``delta_l_threshold`` tall keep their maxLength form,
    the rest are expanded and folded into per-family bitmaps.  encode_batch
    ORs node bits, so prefixes that overlapping blocks share need no union.
    """
    ml: list[AddressBlock] = []
    short: dict[int, list[AddressBlock]] = {V4: [], V6: []}
    for b in blocks:
        (family, _, prefixlen), max_length = b
        if max_length - prefixlen >= cfg.delta_l_threshold:  # the block's height
            ml.append(b)
        else:
            short[family].append(b)
    bm: list[SubTreeBlock] = []
    for fam in (V4, V6):
        if short[fam]:
            bm.extend(encode_batch(cfg.hanging[fam], chain.from_iterable(map(expand, short[fam]))))
    return tuple(ml), tuple(bm)
