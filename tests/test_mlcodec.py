import random
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from hroa.hybrid import expand_all
from hroa.mlcodec import compress_minimal, scatter_degree
from hroa.prefix import (
    V4,
    V6,
    WIDTH,
    AddressBlock,
    ExpansionCapError,
    FamilyMismatchError,
    Prefix,
    _new_block,
    expand,
    parse_prefix,
)
from oracles import oracle_min_partition


def _blk(text, maxlen=None):
    p = parse_prefix(text)
    return AddressBlock(p, p.prefixlen if maxlen is None else maxlen)


def test_worked_example_two_blocks():
    prefixes = {
        parse_prefix("202.127.16.0/20"),
        parse_prefix("202.127.16.0/21"),
        parse_prefix("202.127.16.0/22"),
        parse_prefix("202.127.20.0/22"),
    }
    got = compress_minimal(prefixes)
    assert got == [_blk("202.127.16.0/20", 20), _blk("202.127.16.0/21", 22)]
    assert scatter_degree(prefixes) == Fraction(1, 2)


def test_single_prefix():
    assert compress_minimal({parse_prefix("10.0.0.0/8")}) == [_blk("10.0.0.0/8")]


def test_chain_never_merges():
    # /20, /21, /22 nested on one branch: no complete tree of height > 0
    chain = {
        parse_prefix("202.127.16.0/20"),
        parse_prefix("202.127.16.0/21"),
        parse_prefix("202.127.16.0/22"),
    }
    got = compress_minimal(chain)
    assert len(got) == 3
    assert all(b.height == 0 for b in got)


def test_full_tree_collapses_to_one_block():
    full = expand(AddressBlock(parse_prefix("192.0.2.0/24"), 26))
    got = compress_minimal(full)
    assert got == [_blk("192.0.2.0/24", 26)]
    assert scatter_degree(full) == Fraction(1, 7)


def test_scatter_degree_compresses_each_family_on_its_own():
    # the v4 /24 and its two /25s merge into one block, the v6 /32 is another
    dual = {
        parse_prefix("192.0.2.0/24"),
        parse_prefix("192.0.2.0/25"),
        parse_prefix("192.0.2.128/25"),
        parse_prefix("2001:db8::/32"),
    }
    assert scatter_degree(dual) == Fraction(1, 2)


def test_siblings_need_their_parent_to_merge():
    # without the /23 the two left /24s stay separate blocks
    got = compress_minimal(
        {
            parse_prefix("10.0.0.0/24"),
            parse_prefix("10.0.1.0/24"),
            parse_prefix("10.0.4.0/24"),
        }
    )
    assert len(got) == 3
    got = compress_minimal(
        {
            parse_prefix("10.0.0.0/23"),
            parse_prefix("10.0.0.0/24"),
            parse_prefix("10.0.1.0/24"),
            parse_prefix("10.0.4.0/24"),
        }
    )
    assert got == [_blk("10.0.0.0/23", 24), _blk("10.0.4.0/24")]


def test_partition_is_exact_and_disjoint():
    rng = random.Random(11)
    universe = [
        Prefix(V4, (0xC0000200 >> (32 - n) << (32 - n)) | (extra << (32 - n)), n)
        for n in range(24, 31)
        for extra in range(1 << (n - 24))
    ]
    for _ in range(50):
        chosen = set(rng.sample(universe, rng.randint(1, 12)))
        blocks = compress_minimal(chosen)
        seen = set()
        for b in blocks:
            ps = expand(b)
            assert not (seen & ps), "blocks overlap"
            seen |= ps
        assert seen == chosen


def test_matches_exhaustive_oracle():
    rng = random.Random(7)
    root = parse_prefix("10.20.30.0/28")
    universe = list(expand(AddressBlock(root, 32)))
    for _ in range(300):
        chosen = frozenset(rng.sample(universe, rng.randint(1, 8)))
        got = compress_minimal(chosen)
        assert len(got) == oracle_min_partition(chosen), sorted(map(str, chosen))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_count_never_exceeds_input(data):
    root = parse_prefix("198.51.0.0/24")
    universe = sorted(expand(AddressBlock(root, 29)))
    chosen = data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=20))
    blocks = compress_minimal(chosen)
    assert 1 <= len(blocks) <= len(chosen)
    covered = set()
    for b in blocks:
        covered |= expand(b)
    assert covered == chosen
    assert Fraction(1, len(chosen)) <= scatter_degree(chosen) <= 1


@st.composite
def _small_sets(draw):
    """A few nodes of one complete height-4 tree, rooted at /0, at the
    deepest /len whose tree reaches full width, or anywhere between."""
    family = draw(st.sampled_from((V4, V6)))
    width = WIDTH[family]
    plen = draw(st.sampled_from((0, width - 4, draw(st.integers(0, width - 4)))))
    bits = draw(st.integers(0, (1 << plen) - 1)) << (width - plen) if plen else 0
    universe = sorted(expand(AddressBlock(Prefix(family, bits, plen), plen + 4)))
    return draw(st.sets(st.sampled_from(universe), min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(_small_sets())
def test_one_pass_matches_exhaustive_oracle(chosen):
    got = compress_minimal(chosen)
    assert len(got) == oracle_min_partition(chosen)
    assert got == sorted(got)
    covered = set()
    for b in got:
        ps = expand(b)
        assert not covered & ps
        covered |= ps
    assert covered == chosen


def test_ties_keep_the_smallest_height():
    # at the /29, height 0 and height 1 both need four blocks: height 0 wins
    got = compress_minimal(
        parse_prefix(t)
        for t in ("10.0.0.0/29", "10.0.0.0/30", "10.0.0.4/30",
                  "10.0.0.0/31", "10.0.0.2/31", "10.0.0.4/31")
    )
    assert [str(b) for b in got] == [
        "10.0.0.0/29-29", "10.0.0.0/30-31", "10.0.0.4/30-30", "10.0.0.4/31-31"
    ]


def test_scatter_degree_empty_input():
    with pytest.raises(ValueError):
        scatter_degree(set())


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        compress_minimal(set())


# compress_minimal as it read before its cost pass went edge by edge: the
# reference the property below compares the current one against
def _reference_compress(prefixes: Iterable[Prefix]) -> list[AddressBlock]:
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


@st.composite
def _compressible_sets(draw, family=None):
    """Pieces placed in one height-6 region of the trie, so they overlap:
    lone nodes, sibling pairs with and without their parent, chains down one
    branch and full sub-trees of height 1-4, now and then with the /0 and a
    full-width prefix.  The region is rooted at /0, at the deepest /len that
    reaches full width, or anywhere between.  The family is drawn unless given."""
    family = family or draw(st.sampled_from((V4, V6)))
    width = WIDTH[family]
    top = draw(st.sampled_from((0, width - 6, draw(st.integers(0, width - 6)))))
    base = draw(st.integers(0, (1 << top) - 1)) << (width - top) if top else 0

    def node(depth):
        step = draw(st.integers(0, (1 << depth) - 1))
        return base | step << (width - top - depth), top + depth

    def children(bits, plen):
        return [(bits, plen + 1), (bits | 1 << (width - plen - 1), plen + 1)]

    chosen = set()
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["lone", "pair", "family", "chain", "tree", "ends"]))
        if kind == "ends":
            chosen.add((0, 0))
            chosen.add((draw(st.integers(0, (1 << width) - 1)), width))
            continue
        bits, plen = node(draw(st.integers(0, 5)))
        if kind == "lone":
            chosen.add((bits, plen))
        elif kind in ("pair", "family"):
            chosen.update(children(bits, plen))
            if kind == "family":
                chosen.add((bits, plen))
        elif kind == "chain":
            chosen.add((bits, plen))
            for _ in range(draw(st.integers(1, top + 6 - plen))):
                bits, plen = children(bits, plen)[draw(st.integers(0, 1))]
                chosen.add((bits, plen))
        else:
            height = draw(st.integers(1, min(4, top + 6 - plen)))
            chosen |= {(p.bits, p.prefixlen)
                       for p in expand(AddressBlock(Prefix(family, bits, plen), plen + height))}
    return {Prefix(family, bits, plen) for bits, plen in chosen}


@settings(max_examples=400, deadline=None)
@given(_compressible_sets())
def test_matches_the_node_by_node_reference(chosen):
    assert compress_minimal(chosen) == _reference_compress(chosen)


@settings(max_examples=200, deadline=None)
@given(_compressible_sets(V4), _compressible_sets(V6))
def test_dual_stack_is_the_v4_blocks_then_the_v6_blocks(v4, v6):
    assert compress_minimal(v4 | v6) == compress_minimal(v4) + compress_minimal(v6)


@st.composite
def _block_lists(draw):
    """A few small blocks under three shared /16s of either family; now and then a tall one."""
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        family = draw(st.sampled_from([V4, V4, V6]))
        width = WIDTH[family]
        if draw(st.integers(0, 15)) == 0:  # taller than the expansion cap
            plen = draw(st.integers(0, 8))
            height = draw(st.integers(21, 24))
        else:
            plen = draw(st.integers(16, 24))
            height = draw(st.integers(0, 4))
        bits = 0
        if plen >= 16:  # under one of three /16s
            bits = draw(st.integers(0, 2)) << (width - 16)
            bits |= draw(st.integers(0, (1 << (plen - 16)) - 1)) << (width - plen)
        blocks.append(AddressBlock(Prefix(family, bits, plen), plen + height))
    return blocks


def _compress_outcome(compress, blocks):
    try:
        return compress(blocks)
    except ExpansionCapError as exc:
        return f"ExpansionCapError: {exc}"


@settings(max_examples=400, deadline=None)
@given(_block_lists())
def test_blocks_compress_as_their_expansion(blocks):
    assert _compress_outcome(compress_minimal, blocks) == _compress_outcome(
        lambda b: compress_minimal(expand_all(b)), blocks)
