"""Hanging-level profile optimizer.

Choosing where sub-trees hang trades sub-tree count against sharing: a cut
at every level gives one sub-tree per prefix length touched, sparse cuts
let one sub-tree carry prefixes of several lengths.  The wire spends a
fixed 32-bit bitmap on every sub-tree, so each sub-tree PDU of a family
costs the same ``wire.LAYOUT[family].subtree_len`` bytes, and one is sent
per distinct (AS, sub-tree root).  For a known workload that count
decomposes per segment (cut level -> next cut), so the cheapest profile
falls out of a shortest-path DP over cut positions.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import wire
from .bmcodec import MAX_GAP
from .prefix import WIDTH, FamilyMismatchError, Prefix


def _num_table(pairs: Sequence[tuple[int, int]], width: int) -> list[list[int]]:
    """num[i][j] = distinct (AS, level-i root) pairs among prefixes with i <= len < j.

    Each pair is (asn << width | bits, len), so dropping the key's low
    width - i bits leaves the AS and the prefix's level-i root.
    """
    by_len: list[list[int]] = [[] for _ in range(width + 1)]
    for key, plen in pairs:
        by_len[plen].append(key)
    num = [[0] * (width + 2) for _ in range(width + 1)]
    for i in range(width + 1):
        seen: set[int] = set()
        row = num[i]
        for ln in range(i, width + 1):
            for key in by_len[ln]:
                seen.add(key >> (width - i))
            row[ln + 1] = len(seen)
    return num


def optimize_levels(
    workload: Mapping[int, Iterable[Prefix]],
    h_max: int = wire.MAX_SUBTREE_HEIGHT,
    width: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """Cheapest hanging levels for each AS's prefixes: (levels, sub-tree PDU bytes).

    The cost is what hroa serializes for these prefixes under the returned
    profile: one ``subtree_len``-byte PDU per distinct (AS, sub-tree).
    Every gap between cuts, and the terminal gap to width+1, stays within
    ``h_max``, which defaults to the tallest sub-tree the wire can carry.
    Ties break toward fewer cuts, then the lexicographically smallest
    profile.  ``width`` below the family width restricts the universe to
    shallow tries for constrained studies.
    """
    if not 2 <= h_max <= MAX_GAP:  # the terminal gap to width+1 is at least 2
        raise ValueError(f"h_max {h_max} is outside 2..{MAX_GAP}")
    by_as = [(asn, list(prefixes)) for asn, prefixes in workload.items()]
    fams = {p.family for _, pl in by_as for p in pl}
    if not fams:
        raise ValueError("empty workload")
    if len(fams) != 1:
        raise FamilyMismatchError("workload must be a single family")
    family = fams.pop()
    if width is None:
        width = WIDTH[family]
    elif not 1 <= width <= WIDTH[family]:
        raise ValueError(f"width {width} out of range")
    if any(p.prefixlen > width for _, pl in by_as for p in pl):
        raise ValueError(f"workload exceeds width {width}")

    shift = WIDTH[family] - width  # store toy universes in the top bits
    pairs = [(asn << width | p.bits >> shift, p.prefixlen) for asn, pl in by_as for p in pl]
    num = _num_table(pairs, width)

    # best[l]: (sub-tree count, cut count, profile) covering levels [0, l)
    # with l the next cut.  Candidate order under tuple comparison
    # implements the tie-break: count, then fewer cuts, then
    # lexicographically smaller.  Each l has the candidate i = l - 1.
    best: list[tuple[int, int, tuple[int, ...]]] = [(0, 1, (0,))]
    for l in range(1, width):
        best.append(min(
            (best[i][0] + num[i][l], best[i][1] + 1, best[i][2] + (l,))
            for i in range(max(0, l - h_max), l)
        ))

    count, _, levels = min(
        (best[c][0] + num[c][width + 1], best[c][1], best[c][2])
        for c in range(max(0, width + 1 - h_max), width)
    )
    return levels, count * wire.LAYOUT[family].subtree_len
