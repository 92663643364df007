import math
import random

import pytest

from hroa.bmcodec import HangingLevels, SubTreeBlock, decode_block
from hroa import hybrid
from hroa.hybrid import HybridConfig, canonical_blocks, hybrid_encode
from hroa.prefix import V4, V6, AddressBlock, Prefix, expand, parse_prefix
from hroa.sync import CacheSnapshot, SweepCell, decode_payload_pdu, payload_pdus, sweep_parameters
from hroa.wire import MAX_PDU_LEN, SubTreeAggPdu, SubTreePdu, agg_capacity, serialize

FIG_PREFIXES = [
    parse_prefix("202.127.16.0/20"),
    parse_prefix("202.127.16.0/21"),
    parse_prefix("202.127.16.0/22"),
    parse_prefix("202.127.20.0/22"),
]


def _blk(text, maxlen=None):
    p = parse_prefix(text)
    return AddressBlock(p, p.prefixlen if maxlen is None else maxlen)


def _snap(inputs, cfg=None, **kw):
    return CacheSnapshot.build(inputs, cfg, session_id=1, **kw)


def _decode_pdus(pdus, cfg):
    """{asn: prefixes} of payload PDUs, through the sync client's decoder."""
    out = {}
    for pdu in pdus:
        asn, blocks, prefixes = decode_payload_pdu(pdu, cfg)
        acc = out.setdefault(asn, set())
        acc |= prefixes
        for b in blocks:
            acc |= expand(b)
    return out


def _hroa_round_trip(inputs, cfg=None, **kw):
    """{asn: prefixes} that the hroa PDUs of a snapshot of the inputs decode to."""
    cfg = cfg or HybridConfig()
    return _decode_pdus(payload_pdus(_snap(inputs, cfg, **kw), "hroa"), cfg)


def test_config_validation():
    HybridConfig(delta_l_threshold=math.inf)
    HybridConfig(delta_l_threshold=0)
    HybridConfig(delta_l_threshold=25)  # above the expansion cap: expand refuses a tall block
    with pytest.raises(ValueError):
        HybridConfig(delta_l_threshold=-1)
    with pytest.raises(ValueError):  # nan < 0 is false, but NaN is no threshold
        HybridConfig(delta_l_threshold=math.nan)
    with pytest.raises(ValueError):
        HybridConfig(hanging={V4: HangingLevels.default(V4)})
    # each profile filed under the other family's key
    with pytest.raises(ValueError, match="v4 is given a v6 profile"):
        HybridConfig(hanging={V4: HangingLevels.default(V6), V6: HangingLevels.default(V4)})
    with pytest.raises(ValueError, match="v6 is given a v4 profile"):
        HybridConfig(hanging={V4: HangingLevels.default(V4), V6: HangingLevels.default(V4)})


def test_default_config_reuses_the_module_default_profiles():
    a, b = HybridConfig(), HybridConfig()
    for fam in (V4, V6):
        assert a.hanging[fam] is b.hanging[fam] is hybrid._DEFAULT_HANGING[fam]
        assert a.hanging[fam] == HangingLevels.default(fam)
    # each config gets a dict of its own, so changing one changes no other
    assert a.hanging is not b.hanging and a.hanging is not hybrid._DEFAULT_HANGING


def test_worked_example_single_block():
    # both minimal blocks are short, so everything lands in one bitmap PDU
    ml, bm = hybrid_encode(HybridConfig(), canonical_blocks(FIG_PREFIXES))
    assert ml == ()
    assert bm == (SubTreeBlock(V4, 1878001, 54),)
    snap = _snap({7497: FIG_PREFIXES})
    assert len(payload_pdus(snap, "hroa")) == len(payload_pdus(snap, "ahroa")) == 1
    assert _hroa_round_trip({7497: FIG_PREFIXES}) == {7497: set(FIG_PREFIXES)}


def test_threshold_routes_tall_blocks_to_maxlength():
    items = [_blk("10.0.0.0/8", 16), _blk("192.0.2.0/24", 25)]
    ml, bm = hybrid_encode(HybridConfig(), items)
    assert ml == (_blk("10.0.0.0/8", 16),)
    # the short block expands to the /24 plus both /25s, and each /25
    # hangs in its own level-25 sub-tree
    assert {b.id for b in bm} == {
        (1 << 20) | (0xC0000200 >> 12),
        (1 << 25) | (0xC0000200 >> 7),
        (1 << 25) | (0xC0000280 >> 7),
    }
    want = expand(items[0]) | expand(items[1])
    assert _hroa_round_trip({64500: items}) == {64500: want}


def test_threshold_zero_is_pure_maxlength():
    cfg = HybridConfig(delta_l_threshold=0)
    ml, bm = hybrid_encode(cfg, canonical_blocks(FIG_PREFIXES))
    assert bm == ()
    assert ml == (
        _blk("202.127.16.0/20", 20),
        _blk("202.127.16.0/21", 22),
    )


def test_threshold_inf_is_pure_bitmap():
    cfg = HybridConfig(delta_l_threshold=math.inf)
    ml, bm = hybrid_encode(cfg, [_blk("10.0.0.0/8", 16)])
    assert ml == ()
    assert sum(bin(b.bitmap >> 1).count("1") for b in bm) == 2**9 - 1
    got = _hroa_round_trip({64500: [_blk("10.0.0.0/8", 16)]}, cfg)
    assert got == {64500: expand(_blk("10.0.0.0/8", 16))}


def test_boundary_height_goes_maxlength():
    # height exactly at the threshold stays a maxLength block
    ml, _ = hybrid_encode(HybridConfig(), [_blk("10.0.0.0/8", 11)])
    assert ml == (_blk("10.0.0.0/8", 11),)
    ml, _ = hybrid_encode(HybridConfig(), [_blk("10.0.0.0/8", 10)])
    assert ml == ()


def test_mixed_families_share_payload():
    items = [_blk("10.0.0.0/24"), _blk("2001:db8::/64")]
    _, bm = hybrid_encode(HybridConfig(), items)
    assert {b.family for b in bm} == {V4, V6}
    back = _hroa_round_trip({64500: items})
    assert back == {64500: {parse_prefix("10.0.0.0/24"), parse_prefix("2001:db8::/64")}}


def test_prefix_input_is_precompressed():
    # the /24 full tree folds into one tall block before the threshold split
    full = expand(_blk("192.0.2.0/24", 28))
    ml, bm = hybrid_encode(HybridConfig(), canonical_blocks(full))
    assert ml == (_blk("192.0.2.0/24", 28),)
    assert bm == ()


def test_block_input_recompress():
    items = [_blk("192.0.2.0/25", 28), _blk("192.0.2.128/25", 28), _blk("192.0.2.0/24")]
    ml, bm = hybrid_encode(HybridConfig(), canonical_blocks(items))
    assert len(ml) == 2 and len(bm) == 1
    ml, bm = hybrid_encode(HybridConfig(), canonical_blocks(items, recompress=True))
    assert ml == (_blk("192.0.2.0/24", 28),)
    assert bm == ()
    assert _hroa_round_trip({64500: items}) == _hroa_round_trip({64500: items}, recompress=True)


def test_mixed_input_types_rejected():
    with pytest.raises(TypeError):
        canonical_blocks([parse_prefix("10.0.0.0/8"), _blk("10.0.0.0/8")])
    with pytest.raises(ValueError):
        canonical_blocks([])


def test_aggregation_groups_per_family():
    cfg = HybridConfig()
    items = [
        _blk("10.0.0.0/24"),
        _blk("10.32.0.0/24"),
        _blk("2001:db8::/64"),
    ]
    snap = _snap({64500: items}, cfg)
    assert len(snap.payloads[64500][1]) == 3
    pdus = payload_pdus(snap, "ahroa")
    assert [type(p) for p in pdus] == [SubTreeAggPdu, SubTreeAggPdu]
    assert [p.family for p in pdus] == [V4, V6]
    v4_ids = [sid for sid, _ in pdus[0].blocks]
    assert len(v4_ids) == 2 and v4_ids == sorted(v4_ids)
    assert [type(p) for p in payload_pdus(snap, "hroa")] == [SubTreePdu] * 3
    assert _decode_pdus(pdus, cfg) == {
        64500: {parse_prefix("10.0.0.0/24"), parse_prefix("10.32.0.0/24"), parse_prefix("2001:db8::/64")}
    }


def test_aggregation_sorts_and_splits_at_the_length_cap():
    # more v6 sub-trees than one PDU holds, each the root node alone; with a
    # level at every prefix length, each block's root prefix is its own sub-tree
    v6 = [SubTreeBlock(V6, sid, 2) for sid in range(agg_capacity(V6) + 1, 0, -1)]
    v4 = [SubTreeBlock(V4, 9, 2), SubTreeBlock(V4, 3, 2)]
    hanging = {fam: HangingLevels.explicit(fam, range(w)) for fam, w in ((V4, 32), (V6, 128))}
    roots = [p for b in v6 + v4 for p in decode_block(hanging[b.family], b)[1]]
    snap = _snap({64500: [AddressBlock(p, p.prefixlen) for p in roots]}, HybridConfig(hanging=hanging))
    assert set(snap.payloads[64500][1]) == set(v6 + v4)
    pdus = payload_pdus(snap, "ahroa")
    assert [(p.family, len(p.blocks)) for p in pdus] == [(V4, 2), (V6, agg_capacity(V6)), (V6, 1)]
    ids = [sid for p in pdus for sid, _ in p.blocks]
    assert ids == [3, 9] + list(range(1, agg_capacity(V6) + 2))
    assert all(len(serialize(p)) <= MAX_PDU_LEN for p in pdus)


def _random_blocks(rng, count):
    out = set()
    while len(out) < count:
        fam = rng.choice((V4, V6))
        width = 32 if fam == V4 else 128
        n = rng.randint(0, width)
        p = Prefix(fam, rng.getrandbits(n) << (width - n), n)
        out.add(AddressBlock(p, min(width, n + rng.randint(0, 6))))
    return sorted(out)


@pytest.mark.parametrize("threshold", [0, 1, 3, 6, math.inf])
def test_random_round_trip_across_thresholds(threshold):
    rng = random.Random(int(threshold) if threshold != math.inf else 99)
    cfg = HybridConfig(delta_l_threshold=threshold)
    for _ in range(60):
        blocks = _random_blocks(rng, rng.randint(1, 25))
        want = set()
        for b in blocks:
            want |= expand(b)
        snap = _snap({64500: blocks}, cfg)
        plain = payload_pdus(snap, "hroa")
        assert _decode_pdus(plain, cfg) == {64500: want}
        aggregated = payload_pdus(snap, "ahroa")
        assert _decode_pdus(aggregated, cfg) == {64500: want}
        assert len(aggregated) <= len(plain)


def test_sweep_grid_shape_and_consistency():
    inputs = {7497: FIG_PREFIXES, 64500: [parse_prefix("10.0.0.0/16")]}
    grid = sweep_parameters(inputs, [0, 3, math.inf], [4, 5])
    assert set(grid) == {(t, s) for t in (0, 3, math.inf) for s in (4, 5)}
    for cell in grid.values():
        assert isinstance(cell, SweepCell)
        assert cell.pdu_count >= 1 and cell.total_bytes >= 20
    # threshold 0 means pure maxLength: 3 blocks at 20 bytes each
    assert grid[(0, 5)] == SweepCell(3, 60)
    # the worked example at defaults: one bitmap PDU + one for the /16
    assert grid[(3, 5)].pdu_count == 2
    agg = sweep_parameters(inputs, [math.inf], [5], aggregate=True)
    assert agg[(math.inf, 5)].pdu_count <= grid[(math.inf, 5)].pdu_count


@pytest.mark.parametrize("aggregate", [False, True])
def test_sweep_cell_matches_served_pdus(aggregate):
    inputs = {
        7497: FIG_PREFIXES,
        64500: [_blk("10.0.0.0/8", 16), _blk("192.0.2.0/24", 25), _blk("2001:db8::/64")],
        64501: [_blk("198.51.100.0/24"), _blk("203.0.113.0/24")],
    }
    grid = sweep_parameters(inputs, [3], [5], aggregate=aggregate)
    snap = CacheSnapshot.build(inputs, session_id=1)
    pdus = payload_pdus(snap, "ahroa" if aggregate else "hroa")
    assert grid[(3, 5)] == SweepCell(len(pdus), sum(len(serialize(p)) for p in pdus))


def test_sweep_rejects_multiples_the_wire_cannot_carry():
    inputs = {1: [_blk("202.127.16.0/23")]}
    grid = sweep_parameters(inputs, [0, 3, math.inf], [3, 4, 5])
    assert grid[(math.inf, 5)] == SweepCell(1, 20)
    with pytest.raises(ValueError, match="v4 profile has a sub-tree of height 6; .* at most 5"):
        sweep_parameters(inputs, [3], [6])
