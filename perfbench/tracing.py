"""Outside-in tracing of the program's layers.

The tracer replaces public entry points at the names their callers look up
(``hroa.sync.decode_block``, ``hroa.wire.PduReader.feed``, ...) with
wrappers that record a span per call; ``src/`` is never edited.  Only calls
on the benchmark's own thread inside an op are recorded, so the cache
server's connection threads run untraced.  A span's self time is its
duration minus the time covered by its child spans.  Self times and counts
are summed per op kind (``publish`` or ``sync``) for every traced op; the
full span list is kept in memory for the first ``SAMPLE_OPS`` ops of each
kind and written out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

SAMPLE_OPS = 2

# (module path under hroa, attribute, layer name, how the attribute is bound)
TARGETS = [
    ("workload", "load_csv", "workload.load_csv", "func"),
    ("workload.Workload", "add", "workload.add", "func"),
    ("sync", "compress_minimal", "mlcodec.compress_minimal", "func"),
    ("hybrid", "compress_minimal", "mlcodec.compress_minimal", "func"),
    ("sync", "hybrid_encode", "hybrid.hybrid_encode", "func"),
    ("hybrid", "encode_batch", "bmcodec.encode_batch", "func"),
    ("sync.CacheSnapshot", "build", "sync.CacheSnapshot.build", "classmethod"),
    ("sync", "payload_pdus", "sync.payload_pdus", "func"),
    ("sync.RtrServer", "__init__", "sync.RtrServer.init", "func"),
    ("wire", "serialize", "wire.serialize", "func"),
    ("wire.PduReader", "feed", "wire.PduReader.feed", "func"),
    ("sync", "decode_block", "bmcodec.decode_block", "func"),
    ("sync", "expand", "prefix.expand", "func"),
    ("hybrid", "expand", "prefix.expand", "func"),
    ("sync", "fetch", "sync.fetch", "func"),
]


def _count(c, kind, layer, args, result) -> None:
    """Work counts recorded at a layer boundary, from its arguments and result."""
    if layer == "workload.load_csv":
        c[kind, "workload.load_csv.rows"] += result.vrp_count()
    elif layer in ("mlcodec.compress_minimal", "bmcodec.encode_batch"):
        c[kind, layer + ".blocks_out"] += len(result)
    elif layer == "wire.serialize":
        c[kind, "wire.serialize.bytes"] += len(result)
    elif layer == "wire.PduReader.feed":
        c[kind, "wire.PduReader.feed.pdus"] += len(result)
        c[kind, "wire.PduReader.feed.bytes"] += len(args[1])
    elif layer == "bmcodec.decode_block":
        c[kind, "bmcodec.decode_block.prefixes_out"] += len(result[1])
    elif layer.startswith("prefix.expand"):
        c[kind, layer + ".prefixes_out"] += len(result)
    elif layer == "sync.fetch":
        report = result[1]
        c[kind, "sync.fetch.recv_bytes"] += report.total_bytes
        c[kind, "sync.fetch.pdus"] += report.pdu_count


class Tracer:
    def __init__(self, hroa_pkg):
        self.main = threading.get_ident()
        self.patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        self.kind: str | None = None
        self.op_id = -1
        self.in_fetch = 0
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_index]
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.ops: dict[str, int] = defaultdict(int)
        self.sampled: dict[str, int] = defaultdict(int)
        self.recording = False
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op_log: list[dict] = []
        self.violations = 0
        self._op_layer_ns = 0
        for path, attr, layer, binding in TARGETS:
            owner = hroa_pkg
            try:
                for part in path.split("."):
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.absent.append(f"hroa.{path}.{attr}")
                continue
            if binding == "classmethod":
                repl = classmethod(self._wrap(raw.__func__, layer))
            else:
                repl = self._wrap(raw, layer)
            self.patches.append((owner, attr, raw, repl))

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, repl in self.patches:
            setattr(owner, attr, repl)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self.patches:
            setattr(owner, attr, raw)

    def _wrap(self, fn, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.kind is None or threading.get_ident() != tracer.main:
                return fn(*args, **kwargs)
            name = layer
            if layer == "prefix.expand":
                name = "prefix.expand.client" if tracer.in_fetch else "prefix.expand.cache"
            elif layer == "sync.fetch":
                tracer.in_fetch += 1
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
                if layer == "sync.fetch":
                    tracer.in_fetch -= 1
            tracer.counts[tracer.kind, name + ".calls"] += 1
            _count(tracer.counts, tracer.kind, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        idx = -1
        if self.recording:
            idx = len(self.spans)
            self.spans.append((name, 0, 0, self.stack[-1][3] if self.stack else -1, self.op_id))
        self.stack.append([name, time.perf_counter_ns(), 0, idx])

    def _close(self) -> int:
        end = time.perf_counter_ns()
        name, start, child, idx = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
            self.self_ns[self.kind, name] += dur - child
            self._op_layer_ns += dur - child
        if idx >= 0:
            _, _, _, parent, op = self.spans[idx]
            self.spans[idx] = (name, start, end, parent, op)
        return dur

    def begin_op(self, kind: str) -> None:
        """Open an op's root span; layer spans until end_op belong to it."""
        self.kind = kind
        self.op_id += 1
        self.recording = self.sampled[kind] < SAMPLE_OPS
        self._op_layer_ns = 0
        self.install()
        self._open("op." + kind)

    def end_op(self) -> None:
        wall = self._close()
        self.uninstall()
        self.ops[self.kind] += 1
        if self.recording:
            self.sampled[self.kind] += 1
        # per-layer self times of one op can never exceed its wall time
        if self._op_layer_ns > wall:
            self.violations += 1
        self.op_log.append({"op": self.op_id, "kind": self.kind, "wall_ns": wall,
                            "layer_self_ns": self._op_layer_ns})
        self.kind = None
        self.recording = False

    # -- results ------------------------------------------------------------

    def per_op(self, kind: str, layer: str) -> float:
        """Mean self time of a layer per traced op of a kind, in ms."""
        n = self.ops[kind]
        return self.self_ns[kind, layer] / 1e6 / n if n else 0.0

    def count_per_op(self, kind: str, key: str) -> float:
        n = self.ops[kind]
        return self.counts[kind, key] / n if n else 0.0

    def dominant(self, kind: str) -> str | None:
        layers = {layer: ns for (k, layer), ns in self.self_ns.items() if k == kind}
        return max(layers, key=layers.get) if layers else None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                    "ops": self.op_log,
                    "self_ms_per_op": {
                        f"{k}:{layer}": self.per_op(k, layer) for k, layer in self.self_ns
                    },
                    "absent": self.absent,
                },
                fh,
            )
