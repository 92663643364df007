"""maxLength-side encoding: minimal complete-tree compression and its metrics.

A single (prefix, max_length) block can stand for many prefixes, but only
when the whole sub-tree between the two depths is authorized.  The
compressor below partitions an arbitrary authorized set into the fewest
such complete trees; scatter degree then measures how fragmented an AS's
holdings are (1.0 = nothing merges, 1/n = one block covers everything).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .prefix import (
    WIDTH,
    AddressBlock,
    FamilyMismatchError,
    Prefix,
    _new_block,
)


def compress_minimal(prefixes: Iterable[Prefix]) -> list[AddressBlock]:
    """Partition a prefix set into a minimum number of address blocks.

    Every returned block expands to prefixes of the input only, the
    expansions are pairwise disjoint, and their union is exactly the
    input.  No other disjoint block collection is smaller.  Output is
    sorted by (prefix, max_length).

    One pass over the nodes, longest first, finds for each node the fewest
    blocks its component needs with a block of height h rooted there, for
    every h the set completes, and keeps the smallest best h.  A second
    pass, shortest first, emits the block each component root and each
    node hanging below a block's last level starts.
    """
    by_len: dict[int, dict[int, Prefix]] = {}  # prefixlen -> bits -> prefix
    families = set()
    for p in prefixes:
        families.add(p.family)
        by_len.setdefault(p.prefixlen, {})[p.bits] = p
    if not by_len:
        raise ValueError("empty prefix set")
    if len(families) != 1:
        raise FamilyMismatchError("compress_minimal needs a single family")
    width = WIDTH[families.pop()]

    # counts[n][bits] = (costs, best): costs[h] is the block count of the
    # component hanging at node (bits, n) when the block holding the node
    # is rooted there with height h, for h up to the tallest complete tree
    # under it; best is the least of them.  Height h + 1 here is height h
    # at both children merged into one block.
    counts: dict[int, dict[int, tuple[list[int], int]]] = {}
    for plen in sorted(by_len, reverse=True):
        kids = counts.get(plen + 1, {})
        right_bit = 1 << (width - plen - 1) if plen < width else 0
        here = counts[plen] = {}
        for bits in by_len[plen]:
            left = kids.get(bits)
            right = kids.get(bits | right_bit)
            if left is None or right is None:
                best = 1 + (left[1] if left else 0) + (right[1] if right else 0)
                here[bits] = ([best], best)
            else:
                costs = [1 + left[1] + right[1]]
                costs += [a + b - 1 for a, b in zip(left[0], right[0])]
                here[bits] = (costs, min(costs))

    # ends[n][bits]: the last level of the block that holds node (bits, n).
    # A node starts a block unless its parent's block goes on below the parent.
    ends: dict[int, dict[int, int]] = {}
    found: list[tuple[int, int, int]] = []
    for plen in sorted(counts):
        above = ends.get(plen - 1, {})
        parent_mask = ~(1 << (width - plen))
        here = ends[plen] = {}
        for bits, (costs, best) in counts[plen].items():
            end = above.get(bits & parent_mask, -1)
            if end < plen:
                end = plen + costs.index(best)  # the smallest height among the best
                found.append((bits, plen, end))
            here[bits] = end
    found.sort()
    return [_new_block((by_len[plen][bits], end)) for bits, plen, end in found]


def scatter_degree(prefixes: Iterable[Prefix]) -> Fraction:
    """Blocks-per-prefix ratio after minimal compression, as an exact rational.

    Each family is compressed on its own, so a dual-stack set counts the
    blocks of both.
    """
    pset = set(prefixes)
    if not pset:
        raise ValueError("empty prefix set")
    families = {p.family for p in pset}
    blocks = sum(len(compress_minimal(p for p in pset if p.family == f)) for f in families)
    return Fraction(blocks, len(pset))
