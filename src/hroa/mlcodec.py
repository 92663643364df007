"""maxLength-side encoding: minimal complete-tree compression and its metrics.

A single (prefix, max_length) block can stand for many prefixes, but only
when the whole sub-tree between the two depths is authorized.  The
compressor below partitions an arbitrary authorized set, given as prefixes
or as blocks it never expands, into the fewest such complete trees, with
Python work per parent-child edge rather than per node where it can; blocks
that all sit at one length cannot merge and are returned as is, with no
per-node work.  Scatter degree then measures how fragmented an AS's
holdings are (1.0 = nothing merges, 1/n = one block covers everything).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import and_
from typing import Iterable

from .prefix import (
    DEFAULT_EXPANSION_CAP,
    WIDTH,
    AddressBlock,
    Prefix,
    _cap_error,
    _new_block,
    _new_prefix,
)

_LEAF = ((1,), 1)  # the (costs, best) of a node with no child in the set


def compress_minimal(prefixes: Iterable[Prefix | AddressBlock]) -> list[AddressBlock]:
    """Partition a prefix set into a minimum number of address blocks.

    Every returned block expands to prefixes of the input only, the
    expansions are pairwise disjoint, and their union is exactly the
    input.  No other disjoint block collection is smaller.  Each family
    is compressed on its own, and the output is sorted by (prefix,
    max_length): v4 blocks before v6 ones.  An address block in the input
    stands for its expansion, which is never built, and is refused past the
    expansion cap as ``expand`` refuses it.  A family given as height-0
    blocks at one length is returned as those same blocks.
    """
    # family -> length -> bits -> the input object rooted there, or None inside a block
    by_family: dict[int, dict[int, dict[int, Prefix | AddressBlock | None]]] = {}
    for item in prefixes:
        p, max_length = item if isinstance(item, AddressBlock) else (item, item[2])
        family, bits, plen = p
        by_len = by_family.setdefault(family, {})
        by_len.setdefault(plen, {})[bits] = item
        if max_length > plen:
            if max_length - plen > DEFAULT_EXPANSION_CAP:
                raise _cap_error(max_length - plen)
            # the nodes of length n: the root's bits plus k steps of one /n
            end, width = bits + (1 << (WIDTH[family] - plen)), WIDTH[family]
            for n in range(plen + 1, max_length + 1):
                by_len.setdefault(n, {}).update(dict.fromkeys(range(bits, end, 1 << (width - n))))
    if not by_family:
        raise ValueError("empty prefix set")
    out: list[AddressBlock] = []
    for family in sorted(by_family):
        out += _compress_family(by_family[family], family)
    return out


def _compress_family(
    by_len: dict[int, dict[int, Prefix | AddressBlock | None]], family: int
) -> list[AddressBlock]:
    """The minimal blocks of one family, given as prefixlen -> bits -> input object or None.

    One pass over the levels, longest first, finds for each node the fewest
    blocks its component needs with a block of height h rooted there, for
    every h the set completes, and keeps the smallest best h.  Each level
    starts as all leaves, and only parents of nodes one level down are
    revisited.  A second pass, shortest first, emits the block each
    component root and each node hanging below a block's last level starts;
    every node of a level with no level directly above it starts one.  A
    family of blocks at one length has no node with a parent or child in
    the set: its input blocks are returned as is, in bit order, with
    neither pass.
    """
    if len(by_len) == 1:
        [level] = by_len.values()
        if all(map(isinstance, level.values(), repeat(AddressBlock))):
            return list(map(level.__getitem__, sorted(level)))
    width = WIDTH[family]
    # counts[n][bits] = (costs, best): costs[h] is the block count of the
    # component hanging at node (bits, n) when the block holding the node
    # is rooted there with height h, for h up to the tallest complete tree
    # under it; best is the least of them.  Height h + 1 here is height h
    # at both children merged into one block.
    counts: dict[int, dict[int, tuple[tuple[int, ...], int]]] = {}
    for plen in sorted(by_len, reverse=True):
        kids = counts.get(plen + 1, {})
        right_bit = 1 << (width - plen - 1) if plen < width else 0
        here = counts[plen] = dict.fromkeys(by_len[plen], _LEAF)
        for bits in set(map(and_, kids, repeat(~right_bit))).intersection(by_len[plen]):
            left = kids.get(bits)
            right = kids.get(bits | right_bit)
            if left is None or right is None:
                best = 1 + (left or right)[1]
                here[bits] = ((best,), best)
            else:
                costs = (1 + left[1] + right[1], *[a + b - 1 for a, b in zip(left[0], right[0])])
                here[bits] = (costs, min(costs))

    # ends[n][bits]: the last level of the block that holds node (bits, n).
    # A node starts a block unless its parent's block goes on below the parent.
    ends: dict[int, dict[int, int]] = {}
    found: list[tuple[int, int, int]] = []
    for plen in sorted(counts):
        above = ends.get(plen - 1)
        parent_mask = ~(1 << (width - plen))
        here = ends[plen] = {}
        for bits, (costs, best) in counts[plen].items():
            end = above.get(bits & parent_mask, -1) if above else -1
            if end < plen:
                end = plen + costs.index(best)  # the smallest height among the best
                found.append((bits, plen, end))
            here[bits] = end
    found.sort()
    return [_new_block((root[0] if isinstance(root := by_len[plen][bits], AddressBlock)
                        else root or _new_prefix((family, bits, plen)), end))
            for bits, plen, end in found]


def scatter_degree(prefixes: Iterable[Prefix]) -> Fraction:
    """Blocks-per-prefix ratio after minimal compression, as an exact rational.

    A dual-stack set counts the blocks of both families.
    """
    pset = set(prefixes)
    return Fraction(len(compress_minimal(pset)), len(pset))
