import random

import pytest

from hroa import wire
from hroa.bmcodec import HangingLevels
from hroa.levelopt import (
    CostModel,
    _num_table,
    optimize_levels,
    simulate_profile_cost,
)
from hroa.prefix import V4, V6, Prefix, parse_prefix
from oracles import oracle_num, oracle_optimize

FIG_PREFIXES = [
    parse_prefix("202.127.16.0/20"),
    parse_prefix("202.127.16.0/21"),
    parse_prefix("202.127.16.0/22"),
    parse_prefix("202.127.20.0/22"),
]


def test_cost_model_defaults():
    m = CostModel()
    assert m.bitmap_bytes(1) == 1
    assert m.bitmap_bytes(3) == 1
    assert m.bitmap_bytes(4) == 2
    assert m.bitmap_bytes(5) == 4
    assert m.block_size(V4, 5) == 12 + 4 + 4
    assert m.block_size(V6, 5) == 12 + 16 + 4
    with pytest.raises(ValueError):
        m.bitmap_bytes(0)


def _pairs(prefixes):
    return [(p.bits, p.prefixlen) for p in prefixes]


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
    # one /0 pays only for its own segment [0, j): 17 bytes for any j <= 3.
    # fewest cuts that still reach level 28 with gap <= 5 and a first gap
    # of at most 3 is seven, and the first gap must then be exactly 3
    levels, cost = optimize_levels([parse_prefix("0.0.0.0/0")])
    assert levels == (0, 3, 8, 13, 18, 23, 28)
    assert cost == 17
    profile = HangingLevels(V4, levels)
    assert simulate_profile_cost([parse_prefix("0.0.0.0/0")], profile) == 17


def test_worked_example_profile():
    # the segment [20, 23) swallows all four prefixes into one sub-tree;
    # everything else is free, so the DP pads with minimal lex-min cuts
    levels, cost = optimize_levels(FIG_PREFIXES)
    assert levels == (0, 5, 10, 15, 20, 23, 28)
    assert cost == 17
    assert simulate_profile_cost(FIG_PREFIXES, HangingLevels(V4, levels)) == cost


def test_default_h_max_is_the_wire_bound():
    for prefixes in (FIG_PREFIXES, [parse_prefix("0.0.0.0/0")], [parse_prefix("::/0")]):
        levels, _ = optimize_levels(prefixes)
        profile = HangingLevels(prefixes[0].family, levels)
        assert profile.max_height == wire.MAX_SUBTREE_HEIGHT


def test_profile_respects_h_max():
    for h_max in (2, 3, 6):
        levels, _ = optimize_levels(FIG_PREFIXES, h_max=h_max)
        assert HangingLevels(V4, levels).max_height <= h_max
    with pytest.raises(ValueError):
        optimize_levels(FIG_PREFIXES, h_max=1)  # terminal gap is at least 2
    with pytest.raises(ValueError):
        optimize_levels(FIG_PREFIXES, h_max=0)


def test_optimum_beats_fixed_grids():
    rng = random.Random(21)
    prefixes = set()
    while len(prefixes) < 60:
        n = rng.randint(8, 32)
        prefixes.add(Prefix(V4, rng.getrandbits(n) << (32 - n), n))
    levels, cost = optimize_levels(prefixes)
    assert simulate_profile_cost(prefixes, HangingLevels(V4, levels)) == cost
    for step in (4, 5, 6):
        grid = HangingLevels.multiples_of(step, V4)
        assert cost <= simulate_profile_cost(prefixes, grid)


def test_matches_exhaustive_oracle_small_width():
    rng = random.Random(31)
    model = CostModel()
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
        want_cost, want_levels = oracle_optimize(pairs, width, model, V4, h_max)
        levels, got_cost = optimize_levels(prefixes, model, h_max=h_max, width=width)
        assert got_cost == want_cost, (trial, width, h_max)
        assert levels == want_levels, (trial, width, h_max)


def test_v6_pays_wider_identifiers():
    # structurally identical workloads: same best segmentation, but every
    # v6 block costs 12 more bytes of identifier
    v4 = [parse_prefix("10.0.0.0/16"), parse_prefix("10.1.0.0/16")]
    v6 = [parse_prefix("2001::/16"), parse_prefix("2002::/16")]
    l4, c4 = optimize_levels(v4, width=20)
    l6, c6 = optimize_levels(v6, width=20)
    assert l6 == l4
    assert c6 == c4 + 12


def test_workload_validation():
    with pytest.raises(ValueError):
        optimize_levels([])
    with pytest.raises(ValueError):
        optimize_levels([parse_prefix("10.0.0.0/8"), parse_prefix("::/0")])
    with pytest.raises(ValueError):
        optimize_levels([parse_prefix("10.0.0.0/24")], width=16)
