"""Benchmark: router sync and cache publish on scattered and mixed ROA inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process runs one workload: the cache server (``RtrServer``) and one
closed-loop router client (``fetch``, one connection open at a time) talk
over the loopback interface.  The benchmark generates its input from the
seed and hands the program only CSV text.  Every op is checked against an
independent oracle outside its timed interval.  Op times are scaled to a
reference speed of the host, read between ops (speed.py).  The last line
of stdout is the result as one JSON object; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SERVE_SCHEMES = ("mroa", "hroa", "ahroa")
MIN_SYNCS = 100  # so that sync_p90_ms has ten samples beyond it
OVERRUN_S = 60  # longest a run may go past --seconds to reach MIN_SYNCS
PROCESS_BUDGET_S = 160


# setup_s is the import time plus the median of several set-ups (publishes
# of serial 1).  The first makes the servers the timed phase starts on; the
# others run every SETUP_EVERY cycles of the timed phase, into servers that
# are checked and closed at once.  The host's speed changes in steps that
# last seconds, and set-ups back to back all landed on one step.
SETUP_EVERY = 3
# peak_rss_mb is read once the run has made RSS_PUBLISHES publishes, not at
# its end.  Closed servers are never freed (D4 in NOTES.md), so the peak
# grows with every publish, and a faster publish, which fits more publishes
# into the run, would otherwise read as more memory.  The order of ops is
# fixed, so this point is the same op on every run.
RSS_PUBLISHES = 12


@dataclass(frozen=True)
class Spec:
    input: str  # "scattered" (same rows every serial) or "mixed" (churned rows)
    scheme: str  # what the router syncs
    recompress: bool  # CacheSnapshot.build(recompress=...), as `hroa serve --scheme mroa`
    syncs_per_publish: int  # router syncs between two publishes while timing
    layers: tuple[str, ...] = ()  # traced layers it must call beyond COMMON_LAYERS


# Publishes are spread over the whole timed phase, not only done in set-up,
# so that publish_p50_ms rests on many samples taken across the run.  Two
# workloads, so that each run can be long enough to average over the host's
# speed changes (NOTES.md); every traced layer does most of its work in one.
WORKLOADS = {
    "scattered_mroa": Spec("scattered", "mroa", True, 10, ("mlcodec.compress_minimal",)),
    "mixed_churn": Spec("mixed", "ahroa", False, 8, ("bmcodec.decode_block",)),
}

# Layers every traced run must see called.  A wrapper that no longer sits
# at the name its caller looks up would otherwise report 0 without a sign.
COMMON_LAYERS = (
    "workload.load_csv", "workload.add", "hybrid.hybrid_encode", "bmcodec.encode_batch",
    "prefix.expand.cache", "sync.CacheSnapshot.build", "sync.payload_pdus",
    "wire.serialize", "sync.RtrServer.init",
    "sync.fetch", "wire.PduReader.feed", "prefix.expand.client",
)


@dataclass
class Serial:
    rows: list
    text: str


def make_serials(spec: Spec, seed: int, seconds: int) -> tuple[list[Serial], dict]:
    """Every serial's rows and CSV text, all generated before timing."""
    if spec.input == "scattered":
        rows_list = [gen.scattered_rows(seed)]
    else:
        rows, placer = gen.mixed_rows(seed)
        rng = random.Random(f"churn:{seed}")
        rows_list = [rows]
        # one serial per second of timing outlasts the run; publish() wraps round
        for _ in range(max(8, seconds)):
            rows_list.append(gen.churn(rows_list[-1], placer, rng, gen.MIXED_CHURN))
    first = rows_list[0]
    expected = oracle.expected_map(first)
    trees = oracle.subtrees(first)
    shape = gen.shape(
        first,
        sum(len(s) for s in expected.values()),
        {key: len(t) for key, t in trees.items()},
        rows_list,
    )
    return [Serial(r, gen.to_csv(r)) for r in rows_list], shape


def _ranked(samples: list[tuple[float, bool]]) -> list[float]:
    """Op times in seconds, fastest first, with every failed op after the rest."""
    return [t for t, _ in sorted(samples, key=lambda s: (not s[1], s[0]))]


def percentile(samples: list[tuple[float, bool]], q: float) -> float:
    """Nearest-rank percentile of op times in ms; a failed op ranks as slowest."""
    if not samples:
        return float("nan")
    ranked = _ranked(samples)
    idx = max(0, math.ceil(q * len(ranked)) - 1)
    return ranked[idx] * 1e3


def median_ms(samples: list[tuple[float, bool]]) -> float:
    """Median op time in ms; a failed op ranks as slowest."""
    if not samples:
        return float("nan")
    ranked = _ranked(samples)
    n = len(ranked)
    return (ranked[(n - 1) // 2] + ranked[n // 2]) / 2 * 1e3


class Bench:
    def __init__(self, hroa, spec: Spec, serials: list[Serial], session_id: int, tracer):
        self.sync = hroa.sync
        self.workload = hroa.workload
        self.spec = spec
        self.serials = serials
        self.session_id = session_id
        self.tracer = tracer
        # (op time scaled to the reference speed, passed its check)
        self.publishes: list[tuple[float, bool]] = []
        self.syncs: list[tuple[float, bool]] = []
        self.raw: dict[str, list[float]] = {"publish": [], "sync": []}  # unscaled
        self.readings: list[float] = []  # speed.sample() before and after each op
        self.errors: list[str] = []
        self.servers: dict = {}
        self.serial = 0
        self.expected: dict = {}
        self.expected_rows: list = []
        self.wire: dict[int, dict] = {}  # serial index -> expected (pdus, bytes)

    def _fail(self, what: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(what)
            print(f"op failed: {what}", file=sys.stderr)

    def _timed(self, kind: str, fn):
        """Run fn as one op: (scaled seconds, result or None, error or None).

        The elapsed time is scaled by the host's speed read just before and
        just after the op (speed.py).  Under tracing every other op of a
        kind is traced, so traced and untraced ops interleave over the
        same run.
        """
        n = len(self.publishes if kind == "publish" else self.syncs)
        trace = self.tracer is not None and n % 2 == 0
        # Collect outside the timed interval, so that garbage left by the
        # oracle's checks and by earlier ops is not collected inside this op;
        # collections its own allocations trigger still land inside it.
        gc.collect()
        before = speed.sample()
        if trace:
            self.tracer.begin_op(kind)
        t0 = time.perf_counter()
        try:
            result, err = fn(), None
        except Exception as exc:  # the op fails; the run goes on
            result, err = None, f"{type(exc).__name__}: {exc}"
            if not self.errors:
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if trace:
            self.tracer.end_op()
        after = speed.sample()
        self.raw[kind].append(elapsed)
        self.readings += (before, after)
        return speed.scale(elapsed, before, after), result, err

    def publish(self, index: int, serial: int, serve: bool = True) -> float:
        """Publish one serial: CSV text to three ready servers.  Returns its scaled time.

        With ``serve`` false the servers are checked and closed, and the
        router goes on syncing the servers it had.
        """
        index %= len(self.serials)
        item = self.serials[index]
        sync, workload, spec = self.sync, self.workload, self.spec
        made: dict = {}

        def op():
            wl = workload.load_csv(io.StringIO(item.text))
            snap = sync.CacheSnapshot.build(
                wl, session_id=self.session_id, serial=serial, recompress=spec.recompress
            )
            for scheme in SERVE_SCHEMES:
                made[scheme] = sync.RtrServer(snap, scheme)
            return made

        elapsed, _, err = self._timed("publish", op)
        if err is None:
            if index not in self.wire:
                self.wire[index] = oracle.expected_wire(item.rows, spec.recompress)
            err = oracle.check_publish(made, self.wire[index])
        ok = err is None
        self.publishes.append((elapsed, ok))
        if not ok:
            self._fail(f"publish serial {serial}: {err}")
        if not ok or not serve:
            for srv in made.values():
                srv.close()
            return elapsed
        for srv in self.servers.values():
            srv.close()
        self.servers = made
        if self.expected_rows is not item.rows:
            if self.expected:
                self.expected = oracle.update_map(self.expected, self.expected_rows, item.rows)
            else:
                self.expected = oracle.expected_map(item.rows)
            self.expected_rows = item.rows
        self.serial = serial
        return elapsed

    def sync_once(self) -> None:
        server = self.servers[self.spec.scheme]
        elapsed, got, err = self._timed("sync", lambda: self.sync.fetch(server.endpoint))
        if err is None:
            decoded, report = got
            err = oracle.check_sync(
                decoded, report, self.expected, self.serial, self.session_id, server
            )
        ok = err is None
        self.syncs.append((elapsed, ok))
        if not ok:
            self._fail(f"sync serial {self.serial}: {err}")

    def close(self) -> None:
        for srv in self.servers.values():
            srv.close()
        self.servers = {}


def run_timed(bench: Bench, spec: Spec, seconds: int, started: float,
              setup: list[float]) -> float:
    """The measured phase: a publish, then a run of router syncs, repeated.

    Every SETUP_EVERY cycles a set-up is added to ``setup`` first.  Returns
    the peak RSS in MB after RSS_PUBLISHES publishes, or at the end if the
    run made fewer.
    """
    t0 = time.perf_counter()
    deadline = t0 + seconds
    hard = min(deadline + OVERRUN_S, started + PROCESS_BUDGET_S)

    def done() -> bool:
        now = time.perf_counter()
        return now >= hard or (now >= deadline and len(bench.syncs) >= MIN_SYNCS)

    rss_mb = None
    serial = 1
    while not done():
        if serial % SETUP_EVERY == 0:
            setup.append(bench.publish(0, 1, serve=False))
        serial += 1
        bench.publish(serial - 1, serial)
        for _ in range(spec.syncs_per_publish):
            if done():
                break
            bench.sync_once()
        if rss_mb is None and len(bench.publishes) >= RSS_PUBLISHES:
            rss_mb = peak_rss_mb()
    return rss_mb if rss_mb is not None else peak_rss_mb()


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    # One CPU for the whole process, server threads included: the client and
    # the in-process server hand off to each other several times per sync,
    # and waking a second, idle CPU for each handoff added a latency that
    # varied with the host's load rather than with the program's work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "hroa" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'hroa'}; run from a checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    # the benchmark's own work, excluded from setup_s
    serials, shape = make_serials(spec, args.seed, args.seconds)
    inputs_rss_mb = peak_rss_mb()
    session_id = random.Random(f"session:{args.seed}").getrandbits(16)

    before = speed.sample()
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hroa
    import hroa.sync
    import hroa.workload

    import_raw_s = time.perf_counter() - t_import
    import_s = speed.scale(import_raw_s, before, speed.sample())
    if not Path(hroa.__file__).resolve().is_relative_to(SRC):
        print(f"error: hroa imported from {hroa.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(hroa)

    bench = Bench(hroa, spec, serials, session_id, tracer)
    try:
        setup = [bench.publish(0, 1)]
        wire = {s: (srv.response_bytes, srv.payload_pdu_count) for s, srv in bench.servers.items()}
        rss_mb = peak_rss_mb()
        if bench.servers:
            rss_mb = run_timed(bench, spec, args.seconds, started, setup)
    finally:
        bench.close()

    attempted = len(bench.publishes) + len(bench.syncs)
    failed = sum(not ok for _, ok in bench.publishes + bench.syncs)
    correct = failed == 0 and len(wire) == len(SERVE_SCHEMES)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": shape,
        "samples": {"sync": len(bench.syncs), "publish": len(bench.publishes),
                    "setup": len(setup)},
        "import_s": import_s,
        "import_raw_s": import_raw_s,
        "setup_publish_s": setup,
        # unscaled op times and the host's speed, to set the scaling beside
        "raw_ms": {
            "sync_p50": median_ms([(t, True) for t in bench.raw["sync"]]),
            "sync_p90": percentile([(t, True) for t in bench.raw["sync"]], 0.9),
            "publish_p50": median_ms([(t, True) for t in bench.raw["publish"]]),
        },
        "speed_reading_ms": {
            "ref": speed.REF_S * 1e3,
            "min": min(bench.readings) * 1e3,
            "p50": statistics.median(bench.readings) * 1e3,
            "max": max(bench.readings) * 1e3,
        },
        "inputs_peak_rss_mb": inputs_rss_mb,
        "end_peak_rss_mb": peak_rss_mb(),
        "errors": bench.errors,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }

    if args.trace:
        metrics = layer_metrics(tracer, bench)
        uncalled = uncalled_layers(tracer, spec)
        correct = correct and not tracer.absent and not uncalled and tracer.violations == 0
        detail["dominant_layer"] = {k: tracer.dominant(k) for k in ("publish", "sync")}
        detail["traced_ops"] = dict(tracer.ops)
        detail["self_time_violations"] = tracer.violations
        detail["absent_entry_points"] = tracer.absent
        detail["uncalled_layers"] = uncalled
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "sync_p50_ms": (median_ms(bench.syncs), "ms"),
            "sync_p90_ms": (percentile(bench.syncs, 0.9), "ms"),
            "publish_p50_ms": (median_ms(bench.publishes), "ms"),
            "setup_s": (import_s + statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        for scheme in SERVE_SCHEMES:
            nbytes, pdus = wire.get(scheme, (0, 0))
            metrics[f"wire_bytes.{scheme}"] = (nbytes, "B")
            metrics[f"wire_pdus.{scheme}"] = (pdus, "count")

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# Per-layer metrics: (name, unit, op kind it is averaged over, source).
# Time sources are layer self times; "n:" sources are counts.
LAYER_METRICS = [
    ("workload.load_csv.s", "ms/publish", "publish", "workload.load_csv"),
    ("workload.load_csv.rows", "count/publish", "publish", "n:workload.load_csv.rows"),
    ("workload.add.s", "ms/publish", "publish", "workload.add"),
    ("workload.add.calls", "count/publish", "publish", "n:workload.add.calls"),
    ("mlcodec.compress_minimal.s", "ms/publish", "publish", "mlcodec.compress_minimal"),
    ("mlcodec.compress_minimal.blocks_out", "count/publish", "publish",
     "n:mlcodec.compress_minimal.blocks_out"),
    ("hybrid.hybrid_encode.s", "ms/publish", "publish", "hybrid.hybrid_encode"),
    ("bmcodec.encode_batch.s", "ms/publish", "publish", "bmcodec.encode_batch"),
    ("bmcodec.encode_batch.blocks_out", "count/publish", "publish",
     "n:bmcodec.encode_batch.blocks_out"),
    ("prefix.expand.cache_s", "ms/publish", "publish", "prefix.expand.cache"),
    ("sync.CacheSnapshot.build.self_s", "ms/publish", "publish", "sync.CacheSnapshot.build"),
    ("sync.payload_pdus.s", "ms/publish", "publish", "sync.payload_pdus"),
    ("wire.serialize.s", "ms/publish", "publish", "wire.serialize"),
    ("wire.serialize.calls", "count/publish", "publish", "n:wire.serialize.calls"),
    ("wire.serialize.bytes", "B/publish", "publish", "n:wire.serialize.bytes"),
    ("sync.RtrServer.init.self_s", "ms/publish", "publish", "sync.RtrServer.init"),
    ("wire.PduReader.feed.s", "ms/sync", "sync", "wire.PduReader.feed"),
    ("wire.PduReader.feed.calls", "count/sync", "sync", "n:wire.PduReader.feed.calls"),
    ("wire.PduReader.feed.pdus", "count/sync", "sync", "n:wire.PduReader.feed.pdus"),
    ("wire.PduReader.feed.bytes", "B/sync", "sync", "n:wire.PduReader.feed.bytes"),
    ("bmcodec.decode_block.s", "ms/sync", "sync", "bmcodec.decode_block"),
    ("bmcodec.decode_block.calls", "count/sync", "sync", "n:bmcodec.decode_block.calls"),
    ("bmcodec.decode_block.prefixes_out", "count/sync", "sync",
     "n:bmcodec.decode_block.prefixes_out"),
    ("prefix.expand.client_s", "ms/sync", "sync", "prefix.expand.client"),
    ("prefix.expand.prefixes_out", "count/sync", "sync", "n:prefix.expand.client.prefixes_out"),
    ("sync.fetch.self_s", "ms/sync", "sync", "sync.fetch"),
    ("sync.fetch.recv_bytes", "B/sync", "sync", "n:sync.fetch.recv_bytes"),
    ("sync.fetch.pdus", "count/sync", "sync", "n:sync.fetch.pdus"),
]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def uncalled_layers(tracer, spec: Spec) -> list[str]:
    """Layers the workload must run that no traced op called."""
    return [
        layer for layer in COMMON_LAYERS + spec.layers
        if not any(tracer.counts.get((kind, layer + ".calls")) for kind in ("publish", "sync"))
    ]


def layer_metrics(tracer, bench: Bench) -> dict:
    out = {}
    for name, unit, kind, source in LAYER_METRICS:
        if source.startswith("n:"):
            out[name] = (tracer.count_per_op(kind, source[2:]), unit)
        else:
            out[name] = (tracer.per_op(kind, source), unit)
    expanded = tracer.counts["sync", "prefix.expand.client.prefixes_out"]
    decoded = expanded + tracer.counts["sync", "bmcodec.decode_block.prefixes_out"]
    pdus = tracer.counts["sync", "sync.fetch.pdus"]
    out["sync.fetch.expanded_share"] = (expanded / decoded if decoded else 0.0, "ratio")
    out["sync.fetch.prefixes_per_pdu"] = (decoded / pdus if pdus else 0.0, "ratio")
    # tracing overhead: traced (even-numbered) minus untraced ops of the same run
    for kind, samples in (("sync", bench.syncs), ("publish", bench.publishes)):
        traced, plain = samples[0::2], samples[1::2]
        over = median_ms(traced) - median_ms(plain) if plain else 0.0
        out[f"trace.overhead.{kind}_p50_ms"] = (over, "ms")
    return out


if __name__ == "__main__":
    sys.exit(main())
