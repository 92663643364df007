import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hroa import wire
from hroa.bmcodec import HangingLevels
from hroa.hybrid import HybridConfig
from hroa.levelopt import _num_table, optimize_levels
from hroa.prefix import V4, V6, AddressBlock, Prefix, expand, parse_prefix
from hroa.sync import CacheSnapshot, payload_pdus
from oracles import oracle_num, oracle_optimize

FIG_PREFIXES = [
    parse_prefix("202.127.16.0/20"),
    parse_prefix("202.127.16.0/21"),
    parse_prefix("202.127.16.0/22"),
    parse_prefix("202.127.20.0/22"),
]
FIG = {7497: FIG_PREFIXES}

# oracle_optimize's price list: every sub-tree PDU of a family has its fixed wire length
WIRE_PRICE = SimpleNamespace(block_size=lambda family, height: wire.LAYOUT[family].subtree_len)


def _pairs(prefixes, asn=0):
    return [(asn << 32 | p.bits, p.prefixlen) for p in prefixes]


def _wire_subtree_bytes(workload, levels):
    """Bytes of the hroa sub-tree PDUs the public framer sends for a v4 ``workload`` under ``levels``."""
    hanging = {V4: HangingLevels(V4, tuple(levels)), V6: HangingLevels.default(V6)}
    snap = CacheSnapshot.build(workload, HybridConfig(math.inf, hanging), session_id=0)
    return sum(
        len(wire.serialize(pdu))
        for pdu in payload_pdus(snap, "hroa")
        if type(pdu) is wire.SubTreePdu
    )


def test_count_nonempty_subtrees():
    num = _num_table(_pairs(FIG_PREFIXES), 32)
    assert num[20][23] == 1
    assert num[20][21] == 1
    # the /21 and both /22s share their first 21 bits (the /22s split at bit 22)
    assert num[21][23] == 1
    assert num[22][23] == 2
    assert num[0][20] == 0
    two_roots = FIG_PREFIXES + [parse_prefix("202.127.32.0/20")]
    assert _num_table(_pairs(two_roots), 32)[20][23] == 2
    # the wire sends each AS its own sub-tree, so a second AS's copy counts again
    two_ases = _pairs(FIG_PREFIXES, 1) + _pairs(FIG_PREFIXES[:1], 2)
    assert _num_table(two_ases, 32)[20][23] == 2


def test_count_matches_oracle():
    rng = random.Random(5)
    prefixes = set()
    while len(prefixes) < 30:
        n = rng.randint(0, 32)
        prefixes.add(Prefix(V4, rng.getrandbits(n) << (32 - n), n))
    pairs = _pairs(prefixes)
    num = _num_table(pairs, 32)
    for _ in range(100):
        level = rng.randint(0, 31)
        bound = rng.randint(level + 1, 33)
        assert num[level][bound] == oracle_num(pairs, 32, level, bound)


def test_root_only_workload():
    # every sub-tree PDU costs 20 bytes, so one /0 costs 20 under any
    # profile.  The fewest cuts that reach level 28 with gaps <= 5 is seven,
    # and the lexicographically smallest of those starts with a gap of 3
    workload = {1: [parse_prefix("0.0.0.0/0")]}
    levels, cost = optimize_levels(workload)
    assert levels == (0, 3, 8, 13, 18, 23, 28)
    assert cost == 20 == _wire_subtree_bytes(workload, levels)


def test_worked_example_profile():
    # the segment [18, 23) swallows all four prefixes into one sub-tree,
    # and the lexicographically smallest seven-cut profile already has it
    levels, cost = optimize_levels(FIG)
    assert levels == (0, 3, 8, 13, 18, 23, 28)
    assert cost == 20 == _wire_subtree_bytes(FIG, levels)


def test_default_h_max_is_the_wire_bound():
    for prefixes in (FIG_PREFIXES, [parse_prefix("0.0.0.0/0")], [parse_prefix("::/0")]):
        levels, _ = optimize_levels({1: prefixes})
        profile = HangingLevels(prefixes[0].family, levels)
        assert profile.max_height == wire.MAX_SUBTREE_HEIGHT


def test_profile_respects_h_max():
    for h_max in (2, 3, 6):
        levels, _ = optimize_levels(FIG, h_max=h_max)
        assert HangingLevels(V4, levels).max_height <= h_max
    with pytest.raises(ValueError):
        optimize_levels(FIG, h_max=1)  # terminal gap is at least 2
    with pytest.raises(ValueError):
        optimize_levels(FIG, h_max=0)
    # no HangingLevels accepts a gap over its cap, so neither does the optimizer
    for h_max in (7, 10):
        with pytest.raises(ValueError, match=f"h_max {h_max} is outside 2..6"):
            optimize_levels(FIG, h_max=h_max)


def test_every_width_has_a_profile_within_h_max():
    # the terminal gap to width+1 is at least 2, so every h_max from 2 up has
    # a last cut to end on, down to one-level universes
    root = {1: [parse_prefix("0.0.0.0/0")]}
    for width in range(1, 13):
        for h_max in range(2, 7):
            levels, _ = optimize_levels(root, h_max=h_max, width=width)
            bounds = (*levels, width + 1)
            assert levels[0] == 0 and levels[-1] < width, (width, h_max, levels)
            assert all(0 < b - a <= h_max for a, b in zip(bounds, bounds[1:])), (width, h_max)
    with pytest.raises(ValueError, match=r"^h_max 1 is outside 2\.\.6$"):
        optimize_levels(root, h_max=1)


def test_optimum_beats_fixed_grids():
    rng = random.Random(21)
    workload = {1: set(), 2: set(), 3: set()}
    while sum(map(len, workload.values())) < 60:
        n = rng.randint(8, 32)
        workload[rng.randint(1, 3)].add(Prefix(V4, rng.getrandbits(n) << (32 - n), n))
    levels, cost = optimize_levels(workload)
    assert cost == _wire_subtree_bytes(workload, levels)
    for step in range(1, 6):
        assert cost <= _wire_subtree_bytes(workload, HangingLevels.multiples_of(step, V4).levels)


@st.composite
def _v4_workloads(draw):
    """1-4 ASes of small v4 blocks under few distinct roots, so sub-trees are shared."""
    workload = {}
    for asn in draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True)):
        prefixes = set()
        for _ in range(draw(st.integers(1, 5))):
            height = draw(st.integers(0, 4))
            plen = draw(st.integers(0, 32 - height))
            bits = draw(st.integers(0, 15)) << 28 & ~((1 << (32 - plen)) - 1)
            prefixes |= expand(AddressBlock(Prefix(V4, bits, plen), plen + height))
        workload[asn] = prefixes
    return workload


@settings(max_examples=60, deadline=None)
@given(_v4_workloads())
def test_cost_is_the_serialized_subtree_bytes(workload):
    levels, cost = optimize_levels(workload)
    assert cost == _wire_subtree_bytes(workload, levels)
    for step in range(1, 6):
        assert cost <= _wire_subtree_bytes(workload, HangingLevels.multiples_of(step, V4).levels)


def test_matches_exhaustive_oracle_small_width():
    rng = random.Random(31)
    for trial in range(60):
        width = rng.randint(3, 10)
        count = rng.randint(1, 12)
        prefixes = set()
        while len(prefixes) < count:
            n = rng.randint(0, width)
            top = rng.getrandbits(n)
            prefixes.add(Prefix(V4, top << (32 - n) if n else 0, n))
        h_max = rng.randint(2, 6)
        pairs = [(p.bits >> (32 - width), p.prefixlen) for p in prefixes]
        want_cost, want_levels = oracle_optimize(pairs, width, WIRE_PRICE, V4, h_max)
        levels, got_cost = optimize_levels({1: prefixes}, h_max=h_max, width=width)
        assert got_cost == want_cost, (trial, width, h_max)
        assert levels == want_levels, (trial, width, h_max)


def test_v6_pays_wider_identifiers():
    # structurally identical workloads: same best segmentation into one
    # shared sub-tree, but the v6 PDU carries 12 more bytes of identifier
    v4 = {1: [parse_prefix("10.0.0.0/16"), parse_prefix("10.1.0.0/16")]}
    v6 = {1: [parse_prefix("2001::/16"), parse_prefix("2002::/16")]}
    l4, c4 = optimize_levels(v4, width=20)
    l6, c6 = optimize_levels(v6, width=20)
    assert l6 == l4
    assert (c4, c6) == (20, 32)


def test_workload_validation():
    for empty in ({}, {1: []}):
        with pytest.raises(ValueError, match="empty workload"):
            optimize_levels(empty)
    with pytest.raises(ValueError):
        optimize_levels({1: [parse_prefix("10.0.0.0/8")], 2: [parse_prefix("::/0")]})
    with pytest.raises(ValueError):
        optimize_levels({1: [parse_prefix("10.0.0.0/24")]}, width=16)
