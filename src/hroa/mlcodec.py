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
    expand,
)

_Node = tuple[int, int]  # (bits, prefixlen), bits full-width


def compress_minimal(prefixes: Iterable[Prefix]) -> list[AddressBlock]:
    """Partition a prefix set into a minimum number of address blocks.

    Every returned block expands to prefixes of the input only, the
    expansions are pairwise disjoint, and their union is exactly the
    input.  No other disjoint block collection is smaller.  Output is
    sorted by (prefix, max_length).
    """
    pset = set(prefixes)
    if not pset:
        raise ValueError("empty prefix set")
    families = {p.family for p in pset}
    if len(families) != 1:
        raise FamilyMismatchError("compress_minimal needs a single family")
    family = families.pop()
    width = WIDTH[family]

    nodes: set[_Node] = {(p.bits, p.prefixlen) for p in pset}

    def kids(node: _Node) -> list[_Node]:
        bits, plen = node
        if plen >= width:
            return []
        hi = 1 << (width - plen - 1)
        out = []
        if (bits, plen + 1) in nodes:
            out.append((bits, plen + 1))
        if (bits | hi, plen + 1) in nodes:
            out.append((bits | hi, plen + 1))
        return out

    # Tallest h such that the complete tree of height h under `node` is
    # entirely present.
    maxfull: dict[_Node, int] = {}

    def _maxfull(node: _Node) -> int:
        cached = maxfull.get(node)
        if cached is not None:
            return cached
        ks = kids(node)
        h = 0 if len(ks) < 2 else 1 + min(_maxfull(k) for k in ks)
        maxfull[node] = h
        return h

    # best[node] = (block count, chosen height) for the connected component
    # hanging at `node`.  The block containing `node` must be rooted there,
    # so trying every height 0..maxfull is exhaustive.
    best: dict[_Node, tuple[int, int]] = {}

    def _best(node: _Node) -> int:
        cached = best.get(node)
        if cached is not None:
            return cached[0]
        top = _maxfull(node)
        win = None
        win_h = 0
        frontier = [node]
        for h in range(top + 1):
            hanging = [k for q in frontier for k in kids(q)]
            cost = 1 + sum(_best(k) for k in hanging)
            if win is None or cost < win:
                win, win_h = cost, h
            frontier = hanging
        best[node] = (win, win_h)
        return win

    roots = []
    for bits, plen in nodes:
        if plen == 0:
            roots.append((bits, plen))
            continue
        mask = ~((1 << (width - plen + 1)) - 1)
        if (bits & mask, plen - 1) not in nodes:
            roots.append((bits, plen))

    blocks: list[AddressBlock] = []

    def _emit(node: _Node) -> None:
        _best(node)
        _, h = best[node]
        bits, plen = node
        blocks.append(AddressBlock(Prefix(family, bits, plen), plen + h))
        frontier = [node]
        for _ in range(h):
            frontier = [k for q in frontier for k in kids(q)]
        for q in frontier:
            for k in kids(q):
                _emit(k)

    for root in sorted(roots, key=lambda n: (n[0], n[1])):
        _emit(root)
    blocks.sort()
    return blocks


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


def excess_prefixes(block: AddressBlock, authorized: Iterable[Prefix]) -> int:
    """How many prefixes the block would authorize beyond the given set."""
    return len(expand(block) - set(authorized))
