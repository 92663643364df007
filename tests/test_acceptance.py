"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from hroa.bmcodec import (
    BitmapRoa,
    HangingLevels,
    Stm,
    apply_roa,
    decode_block,
    encode_batch,
    make_node_number,
    make_subtree_id,
    stm_decode,
)
from hroa.hybrid import HybridConfig, frame_payload, hybrid_decode, hybrid_encode
from hroa.levelopt import CostModel, optimize_levels
from hroa.mlcodec import compress_minimal, scatter_degree
from hroa.prefix import V4, V6, AddressBlock, Prefix, expand, parse_prefix
from hroa.sync import CacheSnapshot, decode_payload_pdu, fetch, payload_pdus, serve
from hroa.wire import (
    PduReader,
    PrefixPdu,
    SubTreeAggPdu,
    SubTreePdu,
    deserialize,
    serialize,
)
from hroa.workload import synthetic_scattered
from oracles import oracle_min_partition, oracle_optimize

FIG_PREFIXES = [
    parse_prefix("202.127.16.0/20"),
    parse_prefix("202.127.16.0/21"),
    parse_prefix("202.127.16.0/22"),
    parse_prefix("202.127.20.0/22"),
]


def _report(n: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    line = f"criterion {n} {'PASS' if ok else 'FAIL'}: {name}{tail}"
    print(line)
    assert ok, line


def _random_levels(rng: random.Random, width: int) -> HangingLevels:
    levels = [0]
    while width + 1 - levels[-1] > 6:
        hi = min(6, width - 1 - levels[-1])
        levels.append(levels[-1] + rng.randint(1, hi))
    family = V4 if width == 32 else V6
    return HangingLevels(family, tuple(levels))


def _random_prefixes(rng: random.Random, family: int, count: int) -> set[Prefix]:
    width = 32 if family == V4 else 128
    out: set[Prefix] = set()
    while len(out) < count:
        n = rng.randint(0, width)
        out.add(Prefix(family, rng.getrandbits(n) << (width - n), n))
    return out


def test_criterion_1_worked_example_values():
    t0 = time.perf_counter()
    p20 = parse_prefix("202.127.16.0/20")
    ok = make_subtree_id(p20, 20) == 1878001
    ok &= make_node_number(parse_prefix("202.127.16.0/22"), 20) == 4
    cfg = HangingLevels.default(V4)
    blocks = encode_batch(cfg, FIG_PREFIXES)
    ok &= len(blocks) == 1 and blocks[0].bitmap == (1 << 1) | (1 << 2) | (1 << 4) | (1 << 5)
    wd = encode_batch(cfg, [parse_prefix("202.127.16.0/21")], withdraw=True)
    ok &= len(wd) == 1 and wd[0].bitmap == (1 << 0) | (1 << 2)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(
        1,
        "worked-example identifier, node number, and bitmaps",
        ok,
        f"id=1878001 node=4 announce bits {{1,2,4,5}} withdraw bits {{0,2}}, {elapsed:.3f}s",
    )


def test_criterion_2_scheme_counts():
    snap = CacheSnapshot.build({7497: FIG_PREFIXES}, session_id=1)
    counts = {s: len(payload_pdus(snap, s)) for s in ("sroa", "mroa", "hroa")}
    chain = compress_minimal(
        {
            parse_prefix("202.127.16.0/20"),
            parse_prefix("202.127.16.0/21"),
            parse_prefix("202.127.16.0/22"),
        }
    )
    ok = counts == {"sroa": 4, "mroa": 2, "hroa": 1} and len(chain) == 3
    _report(
        2,
        "per-scheme PDU counts on the worked example",
        ok,
        f"sroa={counts['sroa']} mroa={counts['mroa']} hroa={counts['hroa']} chain3={len(chain)}",
    )


def test_criterion_3_round_trip_properties():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    cases_per_family = 10_000
    plain = hybrid = 0
    for family in (V4, V6):
        width = 32 if family == V4 else 128
        other = V6 if family == V4 else V4
        for _ in range(cases_per_family):
            cfg = _random_levels(rng, width)
            prefixes = _random_prefixes(rng, family, rng.randint(1, 10))
            blocks = encode_batch(cfg, prefixes)
            back: set[Prefix] = set()
            for b in blocks:
                flag, ps = decode_block(cfg, b)
                assert flag == 0
                back |= ps
            assert back == prefixes
            plain += 1

            # announce everything, withdraw everything: the map must empty out
            cache = (Stm(64500, 0), Stm(64500, 1))
            apply_roa(cache, BitmapRoa(64500, tuple(blocks)))
            apply_roa(
                cache, BitmapRoa(64500, tuple(encode_batch(cfg, prefixes, withdraw=True)))
            )
            assert cache[0].table == {} and stm_decode(cache[0], cfg) == set()

        for _ in range(cases_per_family):
            cfg = _random_levels(rng, width)
            hcfg = HybridConfig(
                delta_l_threshold=rng.choice((0, 1, 2, 3, 4, 6, math.inf)),
                hanging={family: cfg, other: HangingLevels.default(other)},
            )
            items = []
            seen = set()
            for _ in range(rng.randint(1, 8)):
                n = rng.randint(0, width)
                p = Prefix(family, rng.getrandbits(n) << (width - n), n)
                if p in seen:
                    continue
                seen.add(p)
                items.append(AddressBlock(p, min(width, n + rng.randint(0, 6))))
            if not items:
                continue
            want: set[Prefix] = set()
            for b in items:
                want |= expand(b)
            payload = hybrid_encode(hcfg, 64500, items)
            assert hybrid_decode(hcfg, payload) == {64500: want}
            # aggregated: the payload's ahroa PDUs through the client's decoder
            got: set[Prefix] = set()
            for pdu in frame_payload(payload, aggregate=True):
                asn, blocks, prefixes = decode_payload_pdu(pdu, hcfg)
                assert asn == 64500
                got |= prefixes
                for b in blocks:
                    got |= expand(b)
            assert got == want
            hybrid += 1
    elapsed = time.perf_counter() - t0
    ok = plain >= 2 * cases_per_family and hybrid > 0 and elapsed < 60.0
    _report(
        3,
        "randomized round trips (plain, hybrid, aggregated) plus STM drain",
        ok,
        f"{plain} plain + {hybrid} hybrid cases, {elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence():
    rng = random.Random(404)
    t0 = time.perf_counter()
    universes = 1_000
    for _ in range(universes):
        root_bits = rng.getrandbits(28) << 4
        root = Prefix(V4, root_bits, 28)
        universe = sorted(expand(AddressBlock(root, 32)))
        chosen = frozenset(rng.sample(universe, rng.randint(1, 8)))
        got = compress_minimal(chosen)
        assert len(got) == oracle_min_partition(chosen)
        covered: set[Prefix] = set()
        for b in got:
            ps = expand(b)
            assert not (covered & ps)
            covered |= ps
        assert covered == set(chosen)

    opt_cases = 200
    model = CostModel()
    for _ in range(opt_cases):
        width = rng.randint(3, 12)
        h_max = rng.randint(2, 6)
        prefixes: set[Prefix] = set()
        for _ in range(rng.randint(1, 12)):
            n = rng.randint(0, width)
            prefixes.add(Prefix(V4, rng.getrandbits(n) << (32 - n) if n else 0, n))
        pairs = [(p.bits >> (32 - width), p.prefixlen) for p in prefixes]
        want_cost, want_levels = oracle_optimize(pairs, width, model, V4, h_max)
        levels, got_cost = optimize_levels(prefixes, model, h_max=h_max, width=width)
        assert got_cost == want_cost
        assert levels == want_levels
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "minimal partition and level optimizer match exhaustive oracles",
        True,
        f"{universes} partition universes + {opt_cases} optimizer cases, {elapsed:.1f}s",
    )


def test_criterion_5_wire_exactness():
    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_pdus.json").read_text()
    )
    for vec in golden["vectors"]:
        raw = bytes.fromhex(vec["hex"])
        pdu, used = deserialize(raw)
        assert used == len(raw), vec["name"]
        assert serialize(pdu) == raw, vec["name"]

    assert len(serialize(SubTreePdu(V4, 1878001, 54, 7497))) == 20
    assert len(serialize(SubTreePdu(V6, 1, 2, 1))) == 32

    rng = random.Random(55)
    fuzz_cases = 10_000
    for _ in range(fuzz_cases):
        pdus = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                fam = rng.choice((V4, V6))
                width = 32 if fam == V4 else 128
                n = rng.randint(0, width)
                p = Prefix(fam, rng.getrandbits(n) << (width - n), n)
                pdus.append(PrefixPdu(1, p, rng.randint(n, width), rng.getrandbits(32)))
            elif kind == 1:
                fam = rng.choice((V4, V6))
                pdus.append(
                    SubTreePdu(fam, rng.getrandbits(24) + 1, rng.getrandbits(32), rng.getrandbits(32))
                )
            else:
                fam = rng.choice((V4, V6))
                ids = sorted(rng.sample(range(1, 1 << 20), rng.randint(1, 4)))
                pdus.append(
                    SubTreeAggPdu(
                        fam, rng.getrandbits(32), tuple((i, rng.getrandbits(32)) for i in ids)
                    )
                )
        blob = b"".join(serialize(p) for p in pdus)
        whole = []
        at = 0
        while at < len(blob):
            pdu, used = deserialize(blob, at)
            whole.append(pdu)
            at += used
        reader = PduReader()
        chunked = []
        at = 0
        while at < len(blob):
            step = rng.randint(1, 13)
            chunked.extend(reader.feed(blob[at : at + step]))
            at += step
        assert whole == chunked == pdus
        assert reader.pending == 0
    _report(
        5,
        "golden vectors byte-identical, fixed sizes, streaming == whole-buffer",
        True,
        f"{len(golden['vectors'])} golden vectors + {fuzz_cases} fuzz streams",
    )


def test_criterion_6_end_to_end_sync():
    t0 = time.perf_counter()
    workload = synthetic_scattered(100_000, seed=2)
    assert workload.vrp_count() == 100_000
    sample = random.Random(6).sample(workload.asns(), 200)
    assert all(scatter_degree(workload.prefixes_for(a)) == Fraction(1) for a in sample)

    snap = CacheSnapshot.build(workload, session_id=42)
    want = snap.authorized_map()
    stats = {}
    for scheme in ("mroa", "hroa", "ahroa"):
        with serve(snap, scheme) as server:
            got, report = fetch(server.endpoint, timeout=120)
        assert got == want, scheme
        stats[scheme] = (report.pdu_count, report.total_bytes)
    ok = stats["hroa"][0] < stats["mroa"][0] and stats["ahroa"][0] < stats["hroa"][0]

    def pct(base, new):
        return round(100.0 * (base - new) / base, 1)

    detail = (
        f"pdus mroa={stats['mroa'][0]} hroa={stats['hroa'][0]} ahroa={stats['ahroa'][0]}; "
        f"measured reduction vs mroa: hroa {pct(stats['mroa'][0], stats['hroa'][0])}% pdus "
        f"/ {pct(stats['mroa'][1], stats['hroa'][1])}% bytes, "
        f"ahroa {pct(stats['mroa'][0], stats['ahroa'][0])}% pdus "
        f"/ {pct(stats['mroa'][1], stats['ahroa'][1])}% bytes (report-only); "
        f"{time.perf_counter() - t0:.1f}s"
    )
    _report(6, "100k-VRP loopback sync exact under all schemes, counts ordered", ok, detail)


def test_criterion_7_aggregation_arithmetic():
    rng = random.Random(7)
    ok = True
    for k in range(1, 101):
        ids = sorted(rng.sample(range(1, 1 << 24), k))
        blocks = tuple((i, (rng.getrandbits(31) << 1) | 0) for i in ids)
        agg = serialize(SubTreeAggPdu(V4, 64500, blocks))
        singles = sum(
            len(serialize(SubTreePdu(V4, sid, bm, 64500))) for sid, bm in blocks
        )
        ok &= len(agg) == 12 + 8 * k and singles == 20 * k
    _report(7, "aggregated size 12+8k vs 20k singles for k in 1..100", ok)
