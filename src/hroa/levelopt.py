"""Hanging-level profile optimizer.

Choosing where sub-trees hang trades block count against bitmap width: a
cut at every level gives tiny bitmaps but no sharing, sparse cuts give
wide bitmaps that are mostly empty.  For a known workload the total cost
decomposes per segment (cut level -> next cut), so the cheapest profile
falls out of a shortest-path DP over cut positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import wire
from .prefix import WIDTH, FamilyMismatchError, Prefix
from .bmcodec import HangingLevels, encode_batch, subtree_height, subtree_id_level


@dataclass(frozen=True)
class CostModel:
    """Bytes one block costs: fixed overhead + identifier + bitmap.

    The overhead is the unaggregated wire layout's header plus AS number,
    and the identifier is priced at its wire width; the bitmap is priced at
    its packed width instead of the wire's fixed 4 bytes.
    """

    def bitmap_bytes(self, height: int) -> int:
        if height < 1:
            raise ValueError("height must be >= 1")
        return ((1 << height) + 7) // 8

    def block_size(self, family: int, height: int) -> int:
        id_bytes = wire.LAYOUT[family].addr_bytes
        return wire.PAYLOAD_OVERHEAD + id_bytes + self.bitmap_bytes(height)


def _num_table(pairs: Sequence[tuple[int, int]], width: int) -> list[list[int]]:
    """num[i][j] = distinct level-i roots among prefixes with i <= len < j."""
    by_len: list[list[int]] = [[] for _ in range(width + 1)]
    for bits, plen in pairs:
        by_len[plen].append(bits)
    num = [[0] * (width + 2) for _ in range(width + 1)]
    for i in range(width + 1):
        seen: set[int] = set()
        row = num[i]
        for ln in range(i, width + 1):
            for bits in by_len[ln]:
                seen.add(bits >> (width - i))
            row[ln + 1] = len(seen)
    return num


def optimize_levels(
    workload: Iterable[Prefix],
    model: CostModel | None = None,
    h_max: int = wire.MAX_SUBTREE_HEIGHT,
    width: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """Cheapest hanging levels for a workload under a cost model: (levels, cost).

    Every gap between cuts, and the terminal gap to width+1, stays within
    ``h_max``, which defaults to the tallest sub-tree the wire can carry.
    Ties break toward fewer cuts, then the lexicographically smallest
    profile.  ``width`` below the family width restricts the universe to
    shallow tries for constrained studies.
    """
    model = model or CostModel()
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    pl = list(workload)
    if not pl:
        raise ValueError("empty workload")
    fams = {p.family for p in pl}
    if len(fams) != 1:
        raise FamilyMismatchError("workload must be a single family")
    family = fams.pop()
    if width is None:
        width = WIDTH[family]
    elif not 1 <= width <= WIDTH[family]:
        raise ValueError(f"width {width} out of range")
    if any(p.prefixlen > width for p in pl):
        raise ValueError(f"workload exceeds width {width}")

    shift = WIDTH[family] - width  # store toy universes in the top bits
    pairs = [(p.bits >> shift, p.prefixlen) for p in pl]
    num = _num_table(pairs, width)

    def cost(i: int, j: int) -> int:
        return num[i][j] * model.block_size(family, j - i)

    # best[l]: (cost, cut count, profile) covering levels [0, l) with l the
    # next cut.  Candidate order under tuple comparison implements the
    # tie-break: cost, then fewer cuts, then lexicographically smaller.
    best: list[tuple[int, int, tuple[int, ...]] | None] = [None] * width
    best[0] = (0, 1, (0,))
    for l in range(1, width):
        cands = []
        for i in range(max(0, l - h_max), l):
            prev = best[i]
            if prev is None:
                continue
            cands.append((prev[0] + cost(i, l), prev[1] + 1, prev[2] + (l,)))
        if cands:
            best[l] = min(cands)

    finals = []
    for c in range(max(0, width + 1 - h_max), width):
        prev = best[c]
        if prev is None:
            continue
        finals.append((prev[0] + cost(c, width + 1), prev[1], prev[2]))
    if not finals:
        raise ValueError(f"no profile satisfies h_max={h_max} at width {width}")
    total, _, levels = min(finals)
    return levels, total


def simulate_profile_cost(workload: Iterable[Prefix], profile: HangingLevels) -> int:
    """Price a profile under ``CostModel()`` by actually encoding the workload block by block."""
    model = CostModel()
    blocks = encode_batch(profile, workload)
    return sum(
        model.block_size(b.family, subtree_height(profile, subtree_id_level(b.id)))
        for b in blocks
    )
