"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # from the root of a checkout
    python3 -m pytest -q perfbench/selftest.py

They use small inputs and take a few seconds.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def test_generators_deterministic_per_seed():
    assert gen.scattered_rows(7, ases=8) == gen.scattered_rows(7, ases=8)
    a, pa = gen.mixed_rows(7, total=800)
    b, pb = gen.mixed_rows(7, total=800)
    assert a == b
    ca = gen.churn(a, pa, random.Random("c"), 20)
    cb = gen.churn(b, pb, random.Random("c"), 20)
    assert ca == cb and gen.to_csv(ca) == gen.to_csv(cb)


def test_generators_differ_across_seeds():
    assert gen.scattered_rows(1, ases=8) != gen.scattered_rows(2, ases=8)
    assert gen.mixed_rows(1, total=800)[0] != gen.mixed_rows(2, total=800)[0]


def test_generated_shapes():
    rows = gen.scattered_rows(3, ases=8)
    assert len(rows) == 8 * 32 and len(set(rows)) == len(rows)
    mixed, placer = gen.mixed_rows(3, total=800)
    assert len(mixed) == 800 and len(set(mixed)) == 800
    assert {r.family for r in mixed} == {gen.V4, gen.V6}
    churned = gen.churn(mixed, placer, random.Random(1), 10)
    assert len(set(mixed) - set(churned)) == 10
    assert sorted(r.height for r in mixed) == sorted(r.height for r in churned)


def test_oracle_expansion():
    row = gen.Row(1, gen.V4, 10 << 24, 8, 10)
    got = oracle.expand_row(row)
    assert len(got) == 7
    assert (gen.V4, (10 << 24) | (3 << 22), 10) in got


SMALL_SPEC = run.Spec("scattered", "hroa", False, 2, ("mlcodec.compress_minimal",))


def _small_bench(tracer=None, rows=None):
    import hroa
    import hroa.sync
    import hroa.workload

    rows = rows or gen.scattered_rows(5, ases=4)
    serials = [run.Serial(rows, gen.to_csv(rows))]
    return hroa, run.Bench(hroa, SMALL_SPEC, serials, 4242, tracer)


def test_oracle_fails_a_sync_that_lost_one_prefix():
    _, bench = _small_bench()
    try:
        bench.publish(0, 1)
        server = bench.servers["hroa"]
        decoded, report = bench.sync.fetch(server.endpoint)
        assert oracle.check_sync(decoded, report, bench.expected, 1, 4242, server) is None
        asn = next(iter(decoded))
        decoded[asn].pop()
        err = oracle.check_sync(decoded, report, bench.expected, 1, 4242, server)
        assert err is not None and "1 prefixes missing" in err
        assert oracle.check_sync({}, report, bench.expected, 1, 4242, server) is not None
    finally:
        bench.close()


def test_publish_check_uses_independent_wire_counts():
    mixed, _ = gen.mixed_rows(4, total=600)
    _, bench = _small_bench(rows=mixed)
    try:
        bench.publish(0, 1)
        assert bench.errors == []
        wire = oracle.expected_wire(mixed)
        wrong = {"mroa": wire["mroa"], "hroa": wire["hroa"], "ahroa": (0, 0)}
        assert oracle.check_publish(bench.servers, wrong) is not None
    finally:
        bench.close()


def test_layer_self_times_within_op_wall_time():
    from tracing import Tracer

    hroa, _ = _small_bench()
    tracer = Tracer(hroa)
    assert tracer.absent == []
    _, bench = _small_bench(tracer)
    try:
        for _ in range(2):
            bench.publish(0, 1)
            bench.sync_once()
            bench.sync_once()
    finally:
        bench.close()
    assert bench.errors == []
    assert tracer.ops["publish"] == 1 and tracer.ops["sync"] == 2
    assert tracer.violations == 0
    for op in tracer.op_log:
        assert 0 < op["layer_self_ns"] <= op["wall_ns"]
    assert tracer.dominant("sync") is not None
    # the correctness gate fails on layers the workload should run but did
    # not: scattered rows served as bitmaps skip client expand, and nothing
    # recompresses without recompress=True
    assert run.uncalled_layers(tracer, SMALL_SPEC) == [
        "prefix.expand.client", "mlcodec.compress_minimal"]
    # wrappers are gone between traced ops
    assert not hasattr(hroa.sync.fetch, "__wrapped__")


def test_failed_op_ranks_as_slowest():
    samples = [(0.001 * i, True) for i in range(1, 10)] + [(0.0001, False)]
    assert math.isclose(run.percentile(samples, 0.9), 9.0)
    assert math.isclose(run.percentile(samples, 1.0), 0.1)
    # a fast failed op does not pull the median down
    assert math.isclose(run.median_ms(samples), 5.5)
    assert math.isclose(run.median_ms(samples[:9]), 5.0)


def test_speed_scaling():
    ref = speed.REF_S
    assert math.isclose(speed.scale(0.1, ref, ref), 0.1)
    # an op and the kernel slowed alike by the host read as at full speed
    assert math.isclose(speed.scale(0.15, 1.4 * ref, 1.6 * ref), 0.1)
    # a slower op at the same host speed reads slower
    assert speed.scale(0.2, ref, ref) > speed.scale(0.1, ref, ref)
    assert speed._kernel() == speed._kernel()
    assert 0 < speed.sample() < 1


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
