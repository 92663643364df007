import random

import pytest
from hypothesis import given, settings, strategies as st

from hroa.bmcodec import (
    MAX_GAP,
    BitmapRoa,
    HangingLevels,
    Stm,
    SubTreeBlock,
    _new_subtree_block,
    apply_roa,
    decode_block,
    encode_batch,
    make_node_number,
    make_subtree_id,
    stm_blocks,
    stm_decode,
    stm_insert,
)
from hroa.prefix import V4, V6, WIDTH, FamilyMismatchError, Prefix, parse_prefix

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
    assert V4_CFG.height_at[30] == 3
    assert V6_CFG.levels[-1] == 125
    assert V6_CFG.height_at[125] == 4
    assert all(V4_CFG.height_at[l] == 5 for l in V4_CFG.levels[:-1])


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
    assert cfg.height_at[28] == 5


def test_nearest_level_snaps_down():
    assert V4_CFG.level_of[20] == 20
    assert V4_CFG.level_of[24] == 20
    assert V4_CFG.level_of[4] == 0
    assert V4_CFG.level_of[32] == 30


def test_worked_example_identifier():
    p = parse_prefix("202.127.16.0/20")
    assert make_subtree_id(p, 20) == 1878001
    # the identifier's leading 1 bit puts it at level 20: node 1 is the /20 itself
    assert decode_block(V4_CFG, SubTreeBlock(V4, 1878001, 2)) == (0, {p})


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
    with pytest.raises(ValueError, match="40 is not a profile level"):  # past the v4 width
        decode_block(V4_CFG, SubTreeBlock(V4, 1 << 40, 2))
    with pytest.raises(ValueError, match="^identifier must be >= 1$"):  # built unchecked
        decode_block(V4_CFG, _new_subtree_block((V4, 0, 2)))


def test_encode_batch_rejects_a_prefix_of_the_other_family():
    with pytest.raises(FamilyMismatchError, match="^2001:db8::/32 in a v4 batch$"):
        encode_batch(V4_CFG, [FIG_PREFIXES[0], parse_prefix("2001:db8::/32")])


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


# -- the tuple-backed block ------------------------------------------------------

_FAMILIES = st.sampled_from((V4, V6))
# valid fields: any id with its leading 1 bit, any bitmap with a node bit
_BLOCK_FIELDS = st.tuples(
    _FAMILIES,
    st.one_of(st.integers(1, (1 << 129) - 1), st.sampled_from((1, 2, (1 << 128) - 1))),
    st.one_of(st.integers(2, (1 << 40) - 1), st.sampled_from((2, 3, (1 << 32) - 1))),
)


def _value_error(build, *args) -> str:
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


@given(_BLOCK_FIELDS)
def test_new_subtree_block_builds_what_the_checked_constructor_builds(fields):
    built, checked = _new_subtree_block(fields), SubTreeBlock(*fields)
    assert type(built) is type(checked) is SubTreeBlock
    assert built == checked == fields and hash(built) == hash(checked) == hash(fields)
    assert repr(built) == repr(checked)
    assert built.flag == checked.flag == fields[2] & 1


@given(st.lists(_BLOCK_FIELDS, max_size=12))
def test_new_subtree_block_sorts_as_checked_blocks_and_plain_tuples(rows):
    built = sorted(map(_new_subtree_block, rows))
    assert built == sorted(SubTreeBlock(*row) for row in rows)
    assert [tuple(b) for b in built] == sorted(rows)


@given(st.integers().filter(lambda f: f not in (V4, V6)), st.integers(), st.integers())
def test_subtree_block_rejects_a_bad_family(family, sid, bitmap):
    assert _value_error(SubTreeBlock, family, sid, bitmap) == f"bad family {family!r}"


@given(_FAMILIES, st.integers(max_value=0), st.integers())
def test_subtree_block_rejects_an_id_below_one(family, sid, bitmap):
    assert _value_error(SubTreeBlock, family, sid, bitmap) == "identifier must be >= 1"


@given(_FAMILIES, st.integers(min_value=1), st.integers(max_value=-1))
def test_subtree_block_rejects_a_negative_bitmap(family, sid, bitmap):
    assert _value_error(SubTreeBlock, family, sid, bitmap) == "bitmap must be non-negative"


@given(_FAMILIES, st.integers(min_value=1), st.sampled_from((0, 1)))
def test_subtree_block_rejects_a_bitmap_without_nodes(family, sid, bitmap):
    assert _value_error(SubTreeBlock, family, sid, bitmap) == "bitmap carries no sub-tree nodes"


@given(_FAMILIES, st.data())
def test_encode_batch_builds_what_the_checked_constructor_builds(family, data):
    width = WIDTH[family]
    plens = st.integers(0, width)
    prefixes = data.draw(st.lists(
        plens.flatmap(lambda n: st.integers(0, (1 << n) - 1).map(
            lambda top: Prefix(family, top << (width - n), n))),
        min_size=1, max_size=12,
    ))
    withdraw = data.draw(st.booleans())
    for block in encode_batch(HangingLevels.default(family), prefixes, withdraw):
        checked = SubTreeBlock(*block)
        assert type(block) is SubTreeBlock and block == checked
        assert block.flag == withdraw


def _reference_fold(cfg, prefixes, withdraw):
    """encode_batch as the checked per-prefix helpers spell it, with the level found by a scan."""
    acc = {}
    for p in prefixes:
        level = max(l for l in cfg.levels if l <= p.prefixlen)
        sid = make_subtree_id(p, level)
        acc[sid] = acc.get(sid, 0) | 1 << make_node_number(p, level)
    return [SubTreeBlock(cfg.family, sid, bitmap | withdraw) for sid, bitmap in sorted(acc.items())]


@st.composite
def _profiles(draw, family):
    """A multiples_of(step) profile, or an explicit one from random gaps of 1..MAX_GAP."""
    width = WIDTH[family]
    if draw(st.booleans()):
        return HangingLevels.multiples_of(draw(st.integers(1, MAX_GAP)), family)
    levels = [0]
    while levels[-1] < width + 1 - MAX_GAP:  # until the terminal gap fits the cap
        levels.append(min(levels[-1] + draw(st.integers(1, MAX_GAP)), width - 1))
    return HangingLevels.explicit(family, draw(st.permutations(levels[1:])))


@settings(max_examples=300)
@given(_FAMILIES, st.data())
def test_encode_batch_folds_as_the_checked_helpers_under_any_profile(family, data):
    width = WIDTH[family]
    cfg = data.draw(_profiles(family))
    prefixes = data.draw(st.lists(
        st.integers(0, width).flatmap(lambda n: st.integers(0, (1 << n) - 1).map(
            lambda top: Prefix(family, top << (width - n), n))),
        min_size=1, max_size=40,
    ))
    withdraw = data.draw(st.booleans())
    blocks = encode_batch(cfg, prefixes, withdraw)
    assert blocks == _reference_fold(cfg, prefixes, withdraw)
    assert all(type(b) is SubTreeBlock and b.flag == withdraw for b in blocks)


@given(_FAMILIES, st.data())
def test_height_table_matches_the_profile_gaps(family, data):
    width = WIDTH[family]
    step = data.draw(st.integers(1, 6))
    cfg = HangingLevels.multiples_of(step, family)
    bounds = (*cfg.levels, width + 1)
    gaps = {a: b - a for a, b in zip(bounds, bounds[1:])}
    assert cfg.height_at == tuple(gaps.get(level, 0) for level in range(width))
    # decode_block reads a block's height there and refuses any other level
    for level in range(width + 3):
        block = SubTreeBlock(family, 1 << level, 2)
        if level in gaps:
            assert decode_block(cfg, block)[1] == {Prefix(family, 0, level)}
        else:
            assert _value_error(decode_block, cfg, block) == f"{level} is not a profile level"
