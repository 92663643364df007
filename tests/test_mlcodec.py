import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hroa.mlcodec import compress_minimal, scatter_degree
from hroa.prefix import V4, V6, WIDTH, AddressBlock, Prefix, expand, parse_prefix
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


def test_rejects_mixed_families():
    with pytest.raises(ValueError):
        compress_minimal({parse_prefix("10.0.0.0/8"), parse_prefix("2001:db8::/32")})


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        compress_minimal(set())
