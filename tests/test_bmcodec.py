import random

import pytest
from hypothesis import given, settings, strategies as st

from hroa.bmcodec import (
    BitmapRoa,
    HangingLevels,
    Stm,
    SubTreeBlock,
    apply_roa,
    decode_block,
    encode_batch,
    make_node_number,
    make_subtree_id,
    nearest_hanging_level,
    stm_blocks,
    stm_decode,
    stm_insert,
    subtree_height,
    subtree_id_level,
)
from hroa.prefix import V4, V6, Prefix, parse_prefix

V4_CFG = HangingLevels.default(V4)
V6_CFG = HangingLevels.default(V6)

FIG_PREFIXES = [
    parse_prefix("202.127.16.0/20"),
    parse_prefix("202.127.16.0/21"),
    parse_prefix("202.127.16.0/22"),
    parse_prefix("202.127.20.0/22"),
]


def test_default_profiles():
    assert V4_CFG.levels == (0, 5, 10, 15, 20, 25, 30)
    assert subtree_height(V4_CFG, 30) == 3
    assert V6_CFG.levels[-1] == 125
    assert subtree_height(V6_CFG, 125) == 4
    assert all(subtree_height(V4_CFG, l) == 5 for l in V4_CFG.levels[:-1])


def test_profile_validation():
    with pytest.raises(ValueError):
        HangingLevels(V4, (5, 10))  # must start at 0
    with pytest.raises(ValueError):
        HangingLevels(V4, (0, 10, 5))
    with pytest.raises(ValueError):
        HangingLevels(V4, (0, 32))
    with pytest.raises(ValueError):
        HangingLevels(V4, (0, 8, 16))  # gap 8 over the cap


def test_explicit_profile_rejects_wide_gaps():
    cfg = HangingLevels.explicit(V4, [28, 5, 10, 15, 20, 23, 5])
    assert cfg.levels == (0, 5, 10, 15, 20, 23, 28)
    assert cfg.max_height == 5
    with pytest.raises(ValueError, match="v4 level gap 20 exceeds cap 6"):
        HangingLevels.explicit(V4, [20, 23])
    with pytest.raises(ValueError, match="v6 level gap 7"):
        HangingLevels.multiples_of(7, V6)


@pytest.mark.parametrize("bad", ["5", 5.0, 2.5, True, None])
def test_profile_rejects_levels_that_are_not_ints(bad):
    levels = (0, bad, 10, 15, 20, 25, 30)
    with pytest.raises(ValueError, match="levels must be integers"):
        HangingLevels(V4, levels)
    with pytest.raises(ValueError, match="levels must be integers"):
        HangingLevels.explicit(V4, levels[1:])


def test_max_height_counts_the_terminal_gap():
    assert HangingLevels.default(V4).max_height == 5
    assert HangingLevels.default(V6).max_height == 5
    assert HangingLevels(V4, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27)).max_height == 6
    assert HangingLevels.multiples_of(1, V6).max_height == 2


def test_multiples_profile():
    cfg = HangingLevels.multiples_of(4, V4)
    assert cfg.levels == tuple(range(0, 32, 4))
    assert subtree_height(cfg, 28) == 5


def test_nearest_level_snaps_down():
    assert nearest_hanging_level(V4_CFG, 20) == 20
    assert nearest_hanging_level(V4_CFG, 24) == 20
    assert nearest_hanging_level(V4_CFG, 4) == 0
    assert nearest_hanging_level(V4_CFG, 32) == 30


def test_worked_example_identifier():
    p = parse_prefix("202.127.16.0/20")
    assert make_subtree_id(p, 20) == 1878001
    assert subtree_id_level(1878001) == 20


def test_worked_example_node_numbers():
    assert make_node_number(parse_prefix("202.127.16.0/20"), 20) == 1
    assert make_node_number(parse_prefix("202.127.16.0/21"), 20) == 2
    assert make_node_number(parse_prefix("202.127.16.0/22"), 20) == 4
    assert make_node_number(parse_prefix("202.127.20.0/22"), 20) == 5


def test_worked_example_batch():
    blocks = encode_batch(V4_CFG, FIG_PREFIXES)
    assert blocks == [SubTreeBlock(V4, 1878001, 54)]
    flag, back = decode_block(V4_CFG, blocks[0])
    assert flag == 0
    assert back == set(FIG_PREFIXES)


def test_worked_example_withdraw_bitmap():
    blocks = encode_batch(V4_CFG, [parse_prefix("202.127.16.0/21")], withdraw=True)
    assert blocks == [SubTreeBlock(V4, 1878001, 5)]
    assert blocks[0].flag == 1


def test_level_zero_identifier_is_one():
    p = parse_prefix("0.0.0.0/0")
    assert make_subtree_id(p, 0) == 1
    assert make_node_number(p, 0) == 1
    # 64.0.0.0/3 = leading bits 010 -> node 2^3 + 2 = 10
    blocks = encode_batch(V4_CFG, [p, parse_prefix("64.0.0.0/3")])
    assert blocks == [SubTreeBlock(V4, 1, (1 << 1) | (1 << 10))]


def test_prefixes_split_across_subtrees():
    blocks = encode_batch(
        V4_CFG, [parse_prefix("202.127.16.0/20"), parse_prefix("202.127.32.0/20")]
    )
    assert [b.id for b in blocks] == [1878001, 1878002]
    assert all(b.bitmap == 2 for b in blocks)


def test_decode_rejects_foreign_shapes():
    with pytest.raises(ValueError):
        decode_block(V4_CFG, SubTreeBlock(V4, make_subtree_id(parse_prefix("192.0.0.0/4"), 4), 2))
    with pytest.raises(ValueError):
        decode_block(V6_CFG, SubTreeBlock(V4, 1878001, 54))


def test_block_validation():
    with pytest.raises(ValueError):
        SubTreeBlock(V4, 1878001, 1)  # flag only, no nodes
    with pytest.raises(ValueError):
        SubTreeBlock(V4, 1878001, -2)
    with pytest.raises(ValueError, match="node bits beyond the sub-tree"):
        decode_block(V4_CFG, SubTreeBlock(V4, 1878001, 1 << 40))  # wider than 2^5 bits
    with pytest.raises(ValueError):
        BitmapRoa(7497, (SubTreeBlock(V4, 9, 2), SubTreeBlock(V4, 9, 4)))


def test_stm_worked_example():
    stm = Stm(asn=7497, flag=0)
    stm_insert(stm, SubTreeBlock(V4, 1878001, 54))
    stm_insert(stm, SubTreeBlock(V4, 1878001, 5))
    assert stm.table == {1878001: 50}


def test_stm_eviction_and_flag_forcing():
    stm = Stm(asn=7497, flag=0)
    stm_insert(stm, SubTreeBlock(V4, 1878001, 6))
    stm_insert(stm, SubTreeBlock(V4, 1878001, 7))
    assert stm.table == {}  # all node bits cleared -> entry dropped
    wd = Stm(asn=7497, flag=1)
    stm_insert(wd, SubTreeBlock(V4, 1878001, 6))
    assert wd.table == {}  # clearing an empty entry stores nothing
    stm2 = Stm(asn=7497, flag=0)
    stm_insert(stm2, SubTreeBlock(V4, 1878001, 14))
    stm_insert(stm2, SubTreeBlock(V4, 1878001, 5))  # withdraw bits {0,2}
    assert stm2.table == {1878001: 10}  # node bit 2 gone, stored flag bit stays 0


def test_apply_roa_withdraw_hits_both_maps():
    cache = (Stm(7497, 0), Stm(7497, 1))
    apply_roa(cache, BitmapRoa(7497, tuple(encode_batch(V4_CFG, FIG_PREFIXES))))
    apply_roa(
        cache,
        BitmapRoa(
            7497,
            tuple(encode_batch(V4_CFG, [parse_prefix("202.127.16.0/21")], withdraw=True)),
        ),
    )
    ann, wd = cache
    assert ann.table == {1878001: 50}
    assert wd.table == {1878001: 5}
    assert stm_decode(ann, V4_CFG) == set(FIG_PREFIXES) - {parse_prefix("202.127.16.0/21")}
    assert stm_decode(wd, V4_CFG) == {parse_prefix("202.127.16.0/21")}


def test_apply_roa_checks_ownership():
    cache = (Stm(7497, 0), Stm(7497, 1))
    with pytest.raises(ValueError):
        apply_roa(cache, BitmapRoa(65000, tuple(encode_batch(V4_CFG, FIG_PREFIXES))))
    with pytest.raises(ValueError):
        apply_roa((Stm(7497, 1), Stm(7497, 0)), BitmapRoa(7497, ()))


def test_stm_blocks_round_trip():
    stm = Stm(asn=7497, flag=0)
    for b in encode_batch(V4_CFG, FIG_PREFIXES):
        stm_insert(stm, b)
    blocks = stm_blocks(stm, V4_CFG)
    assert blocks == encode_batch(V4_CFG, FIG_PREFIXES)


def _random_prefixes(rng, family, count):
    width = 32 if family == V4 else 128
    out = set()
    while len(out) < count:
        n = rng.randint(0, width)
        top = rng.getrandbits(n)
        out.add(Prefix(family, top << (width - n), n))
    return out


@pytest.mark.parametrize("family,cfg", [(V4, V4_CFG), (V6, V6_CFG)])
def test_random_round_trips(family, cfg):
    rng = random.Random(family)
    for _ in range(200):
        prefixes = _random_prefixes(rng, family, rng.randint(1, 40))
        blocks = encode_batch(cfg, prefixes)
        assert [b.id for b in blocks] == sorted(b.id for b in blocks)
        back = set()
        for b in blocks:
            flag, ps = decode_block(cfg, b)
            assert flag == 0
            assert not (back & ps), "sub-trees must be disjoint"
            back |= ps
        assert back == prefixes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stm_sequence_matches_set_model(data):
    # a random announce/withdraw sequence; the announce map must equal
    # plain set arithmetic over the same operations
    cfg = V4_CFG
    universe = sorted(_random_prefixes(random.Random(3), V4, 24))
    cache = (Stm(64500, 0), Stm(64500, 1))
    model = set()
    for _ in range(data.draw(st.integers(1, 12))):
        chunk = data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=8))
        withdraw = data.draw(st.booleans())
        blocks = encode_batch(cfg, chunk, withdraw=withdraw)
        apply_roa(cache, BitmapRoa(64500, tuple(blocks)))
        if withdraw:
            model -= chunk
        else:
            model |= chunk
    assert stm_decode(cache[0], cfg) == model
