"""The benchmark's tracer wraps program entry points by name; keep them there."""

import importlib.util
import threading
from pathlib import Path

import pytest

import hroa

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("path, attr", [(t[0], t[1]) for t in _targets()])
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
    # inlined one would leave its wrapper uncalled
    from hroa import sync, wire
    from hroa.prefix import AddressBlock, parse_prefix

    main = threading.get_ident()
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if threading.get_ident() == main:  # the server thread feeds too
                called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    rows = [AddressBlock(parse_prefix(p), ml) for p, ml in SYNC_CASES[scheme]]
    snap = sync.CacheSnapshot.build({64500: rows}, session_id=1)
    want = snap.authorized_map()  # before the wrappers go in: it calls sync.expand too
    monkeypatch.setattr(wire.PduReader, "feed", counting("wire.PduReader.feed", wire.PduReader.feed))
    monkeypatch.setattr(sync, "expand", counting("sync.expand", sync.expand))
    monkeypatch.setattr(sync, "decode_block", counting("sync.decode_block", sync.decode_block))
    with sync.RtrServer(snap, scheme) as server:
        got, _ = sync.fetch(server.endpoint)
    assert got == want
    assert called == layers
