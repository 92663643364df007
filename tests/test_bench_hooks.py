"""The benchmark's tracer wraps program entry points by name; keep them there."""

import importlib.util
import io
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import hroa
import hroa.sync
import hroa.workload

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name: str):
    """Load perfbench/<name>.py; run.py imports gen, oracle and speed by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


TRACING = _perfbench("tracing")
RUN = _perfbench("run")


@pytest.mark.parametrize("path, attr", [(t[0], t[1]) for t in TRACING.TARGETS])
def test_traced_entry_point_exists(path, attr):
    owner = hroa
    for part in path.split("."):
        owner = getattr(owner, part)
    assert attr in vars(owner), f"hroa.{path}.{attr}"


# each scheme on the kind of input its benchmark workload serves
SYNC_CASES = {
    # scattered_mroa: height-0 blocks only, one maxLength PDU each
    "mroa": (("192.0.2.0/24", 24), ("198.51.100.0/24", 24)),
    # mixed_churn: a tall block rides as a maxLength PDU, a short one as a bitmap
    "ahroa": (("10.0.0.0/16", 20), ("192.0.2.0/24", 25)),
}


@pytest.mark.parametrize(
    "scheme, layers",
    [
        ("mroa", {"wire.PduReader.feed", "sync.expand"}),
        ("ahroa", {"wire.PduReader.feed", "sync.expand", "sync.decode_block"}),
    ],
    ids=["mroa", "ahroa"],
)
def test_fetch_calls_traced_entry_points(monkeypatch, scheme, layers):
    # the tracer wraps these at the names fetch looks up; a fast path that
    # inlined one would leave its wrapper uncalled, or change its per-sync count
    import socket

    from hroa import sync, wire
    from hroa.prefix import AddressBlock, parse_prefix

    main = threading.get_ident()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if threading.get_ident() == main:  # the server thread feeds and receives too
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    rows = [AddressBlock(parse_prefix(p), ml) for p, ml in SYNC_CASES[scheme]]
    snap = sync.CacheSnapshot.build({64500: rows}, session_id=1)
    want = snap.authorized_map()  # before the wrappers go in: it calls sync.expand too
    pdus = sync.payload_pdus(snap, scheme)
    monkeypatch.setattr(socket.socket, "recv", counting("recv", socket.socket.recv))
    monkeypatch.setattr(wire.PduReader, "feed", counting("wire.PduReader.feed", wire.PduReader.feed))
    monkeypatch.setattr(sync, "expand", counting("sync.expand", sync.expand))
    monkeypatch.setattr(sync, "decode_block", counting("sync.decode_block", sync.decode_block))
    with sync.RtrServer(snap, scheme) as server:
        got, _ = sync.fetch(server.endpoint)
    assert got == want
    assert set(calls) - {"recv"} == layers
    # one feed per received chunk, one expand per prefix PDU, one decode per sub-tree block
    assert calls["wire.PduReader.feed"] == calls["recv"] >= 1
    assert calls["sync.expand"] == sum(type(pdu) is wire.PrefixPdu for pdu in pdus)
    assert calls["sync.decode_block"] == sum(
        len(pdu.blocks) for pdu in pdus if type(pdu) is wire.SubTreeAggPdu)


# the publish side: a header, a comment, a blank line, a duplicate row and a
# mixed_churn-shaped AS (a tall v4 block, short v4 and v6 blocks)
PUBLISH_CSV = """asn,prefix,max_length
# comment

64500,10.0.0.0/16,20
64500,192.0.2.0/24,25
64500,192.0.2.0/24,25
64500,2001:db8::/32,33
64501,198.51.100.0/24,
"""


def test_publish_calls_traced_entry_points(monkeypatch):
    # load_csv must add every data row through Workload.add, and hybrid_encode
    # must fold through hybrid.expand and hybrid.encode_batch: a fast path that
    # skipped one would leave a required benchmark layer uncalled
    from hroa import hybrid, workload

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(workload.Workload, "add", counting("workload.add", workload.Workload.add))
    monkeypatch.setattr(hybrid, "expand", counting("hybrid.expand", hybrid.expand))
    monkeypatch.setattr(hybrid, "encode_batch", counting("hybrid.encode_batch", hybrid.encode_batch))
    w = workload.load_csv(io.StringIO(PUBLISH_CSV))
    assert calls == {"workload.add": 5}
    assert w.vrp_count() == 4
    ml, bm = hybrid.hybrid_encode(hybrid.HybridConfig(), w.entries[64500])
    assert [str(b) for b in ml] == ["10.0.0.0/16-20"]
    assert {b.family for b in bm} == {4, 6}
    assert calls == {"workload.add": 5, "hybrid.expand": 2, "hybrid.encode_batch": 2}


# small seed-1 inputs of each workload's shape; the mixed one's block heights
# range from 1 to 12, over both families
SMALL_ROWS = {
    "scattered": lambda: RUN.gen.scattered_rows(1, ases=4),
    "mixed": lambda: RUN.gen.mixed_rows(1, total=600)[0],
}


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_bench_calls_every_required_layer(workload):
    # one traced publish and two syncs through the benchmark's own driver, so
    # a dropped layer shows here and not only in a long --trace 1 run
    spec = RUN.WORKLOADS[workload]
    rows = SMALL_ROWS[spec.input]()
    tracer = TRACING.Tracer(hroa)
    bench = RUN.Bench(hroa, spec, [RUN.Serial(rows, RUN.gen.to_csv(rows))], 1, tracer)
    try:
        bench.publish(0, 1)
        bench.sync_once()
        bench.sync_once()
    finally:
        bench.close()
    assert tracer.absent == []
    assert RUN.uncalled_layers(tracer, spec) == []
    assert bench.errors == []
    assert len(bench.publishes) == 1 and len(bench.syncs) == 2
