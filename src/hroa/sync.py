"""Reset-query synchronization: cache server and fetch client.

The only flow spoken here is the full snapshot: Reset Query, answered by
Cache Response, every payload PDU of the scheme and End of Data.
``ServerSession`` and ``ClientSession`` make every protocol decision, without
I/O.  ``RtrServer``, which serializes one response per snapshot and scheme and
paces each connection on its own, and ``fetch`` only move the bytes.
"""

from __future__ import annotations

import json
import logging
import math
import random
import socket
import threading
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping

from . import wire
from .bmcodec import HangingLevels, SubTreeBlock, _new_subtree_block, decode_block
from .hybrid import HybridConfig, canonical_blocks, check_wire_fit, expand_all
from .hybrid import hybrid_encode  # perfbench/tracing.py wraps it at this name
from .mlcodec import compress_minimal  # noqa: F401  perfbench/tracing.py wraps it at this name
from .prefix import V4, V6, WIDTH, _HOST_MASK, AddressBlock, Prefix, _new_block, _new_prefix, expand
from .workload import Workload

log = logging.getLogger("hroa.sync")

SCHEMES = ("sroa", "troa", "mroa", "hroa", "ahroa")
SERVE_SCHEMES = ("mroa", "hroa", "ahroa")
_SUBTREE_TYPES = (wire.SubTreePdu, wire.SubTreeAggPdu)
_PAYLOAD_TYPES = (wire.PrefixPdu, *_SUBTREE_TYPES)
_CHUNK = 4096  # bytes a paced send hands to the socket at a time
_ACCEPT_RETRY_S = 0.05  # the pause after a failed accept() that close() did not cause


class SyncError(Exception):
    pass


class TransportError(SyncError):
    """Socket-level failure (connect, send, receive, premature close)."""


class ProtocolError(SyncError):
    """The peer sent something the reset-query flow does not allow."""


class CacheErrorReport(SyncError):
    """The cache answered with an error-report PDU."""

    def __init__(self, report: wire.ErrorReport):
        super().__init__(f"cache error {report.error_code}: {report.text}")
        self.report = report


@dataclass(frozen=True)
class CacheSnapshot:
    """Immutable per-serial cache state: each AS's canonical address blocks.

    The hybrid split, which only hroa and ahroa frame from, runs on first use.
    """

    session_id: int
    serial: int
    blocks: Mapping[int, tuple[AddressBlock, ...]]
    cfg: HybridConfig

    def __post_init__(self) -> None:
        if not 0 <= self.session_id <= 0xFFFF:
            raise ValueError(f"session_id {self.session_id} is outside 0..65535")
        if not 0 <= self.serial <= 0xFFFFFFFF:
            raise ValueError(f"serial {self.serial} is outside 0..4294967295")

    @classmethod
    def build(
        cls,
        inputs: Mapping[int, Iterable[Prefix] | Iterable[AddressBlock]] | Workload,
        cfg: HybridConfig | None = None,
        session_id: int | None = None,
        serial: int = 1,
        recompress: bool = False,
    ) -> "CacheSnapshot":
        if isinstance(inputs, Workload):
            inputs = inputs.entries
        if session_id is None:
            session_id = random.getrandbits(16)
        blocks = {asn: canonical_blocks(items, recompress) for asn, items in inputs.items()}
        return cls(session_id, serial, blocks, cfg or HybridConfig())

    @cached_property
    def payloads(self) -> dict[int, tuple[tuple[AddressBlock, ...], tuple[SubTreeBlock, ...]]]:
        """Each AS's hybrid split under the snapshot's config: (maxLength, bitmap) blocks."""
        return {asn: hybrid_encode(self.cfg, b) for asn, b in self.blocks.items()}

    def authorized_map(self) -> dict[int, set[Prefix]]:
        return {asn: expand_all(blocks) for asn, blocks in self.blocks.items()}


def payload_pdus(snapshot: CacheSnapshot, scheme: str) -> list[wire.RtrPdu]:
    """Every payload PDU of the snapshot under one scheme, canonical order.

    Each maxLength block is a prefix PDU.  hroa sends each bitmap block as a
    sub-tree PDU; ahroa packs them per family, v4 first, ids ascending, into
    as few aggregated PDUs as the PDU length cap allows.  Prefix and sub-tree
    PDUs are built unchecked: ``wire.serialize`` checks every field it packs.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    new_prefix_pdu, new_subtree_pdu = wire._new_prefix_pdu, wire._new_subtree_pdu
    announce = wire.ANNOUNCE
    pdus: list[wire.RtrPdu] = []
    for asn, blocks in sorted(snapshot.blocks.items()):
        if scheme == "sroa":
            pdus += [new_prefix_pdu((announce, p, p.prefixlen, asn))
                     for p in sorted(expand_all(blocks))]
            continue
        ml, bm = (blocks, ()) if scheme in ("troa", "mroa") else snapshot.payloads[asn]
        pdus += [new_prefix_pdu((announce, p, max_length, asn)) for p, max_length in ml]
        if scheme == "hroa":
            pdus += [new_subtree_pdu((fam, sid, bitmap, asn)) for fam, sid, bitmap in bm]
        elif scheme == "ahroa":
            for fam in (V4, V6):
                pairs = sorted([(sid, bitmap) for family, sid, bitmap in bm if family == fam])
                cap = wire.agg_capacity(fam)
                pdus.extend(
                    wire.SubTreeAggPdu(fam, asn, tuple(pairs[at : at + cap]))
                    for at in range(0, len(pairs), cap)
                )
    return pdus


@dataclass(frozen=True)
class SweepCell:
    pdu_count: int
    total_bytes: int


def sweep_parameters(
    inputs: Mapping[int, Iterable[Prefix] | Iterable[AddressBlock]],
    thresholds: Iterable[float],
    level_multiples: Iterable[int],
    aggregate: bool = False,
) -> dict[tuple[float, int], SweepCell]:
    """Total hroa (ahroa with ``aggregate``) PDU count and bytes per (threshold, level multiple)."""
    blocks = {asn: canonical_blocks(items) for asn, items in inputs.items()}
    table: dict[tuple[float, int], SweepCell] = {}
    for step in level_multiples:
        hanging = {fam: HangingLevels.multiples_of(step, fam) for fam in (V4, V6)}
        check_wire_fit(hanging)
        for thr in thresholds:
            snapshot = CacheSnapshot(0, 0, blocks, HybridConfig(thr, hanging))
            raw = wire.serialize_each(payload_pdus(snapshot, "ahroa" if aggregate else "hroa"))
            table[(thr, step)] = SweepCell(len(raw), sum(map(len, raw)))
    return table


@dataclass
class SyncReport:
    """What one reset-query fetch cost."""

    pdu_count: int = 0
    total_bytes: int = 0
    elapsed: float = 0.0
    decode_count: int = 0
    serial: int = 0
    session_id: int = 0
    skipped_unknown: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _error_report(code: int, text: str, echoed: bytes | bytearray = b"") -> bytes:
    """An error report, its echoed PDU cut short to fit the length cap."""
    room = wire.MAX_PDU_LEN - wire.ERROR_REPORT_OVERHEAD - len(text.encode("utf-8"))
    return wire.serialize(wire.ErrorReport(code, bytes(echoed[:room]), text))


class ServerSession:
    """One cache connection's replies, without I/O.

    ``receive`` takes the router's next bytes; returns the replies, in order,
    and whether to close after them.  Every PDU before a bad one is answered:
    a Reset Query with ``response`` itself, a Serial Query with Cache Reset
    (no serial history is kept), a router's Error Report by closing, any other
    PDU by an Error Report that echoes it: code 4 if ``wire`` refuses its
    version, else 5.  Bytes that do not frame get code 0 (Corrupt Data).
    """

    def __init__(self, response: bytes):
        self.response = response
        self._pending = bytearray()  # the received bytes, from the first PDU not yet answered

    def receive(self, data: bytes) -> tuple[list[bytes], bool]:
        pending = self._pending
        pending += data
        replies: list[bytes] = []
        while True:
            try:
                pdu, used = wire.deserialize(pending)
            except wire.TruncatedPdu:
                return replies, False  # wait for the rest
            except wire.UnsupportedVersion as exc:  # RFC 8210 section 7
                text = f"only protocol version {wire.DEFAULT_VERSION} is supported"
                return [*replies, _error_report(4, text, pending[:exc.length])], True
            except wire.FramingError as exc:
                return [*replies, _error_report(0, str(exc))], True
            kind = type(pdu)
            if kind is wire.ResetQuery:
                replies.append(self.response)
            elif kind is wire.UnknownPdu and pdu.pdu_type == wire.PDU_SERIAL_QUERY:
                replies.append(wire._CACHE_RESET)
            else:
                if kind is not wire.ErrorReport:  # never answered with another (RFC 8210 5.11)
                    text = "only reset query and serial query are supported"
                    replies.append(_error_report(5, text, pending[:used]))
                return replies, True
            del pending[:used]


class RtrServer:
    """Serves one snapshot under one scheme until closed.

    ``bandwidth_bps`` paces each connection on its own; None sends at
    full speed.  A rate that is not positive, or at which one chunk would
    wait longer than ``threading.TIMEOUT_MAX``, is refused.  A ``host``
    with a ``:`` is an IPv6 address.
    """

    def __init__(
        self,
        snapshot: CacheSnapshot,
        scheme: str = "hroa",
        host: str = "127.0.0.1",
        port: int = 0,
        bandwidth_bps: float | None = None,
    ):
        if scheme not in SERVE_SCHEMES:
            raise ValueError(f"serve scheme must be one of {SERVE_SCHEMES}")
        if bandwidth_bps is not None:
            if not bandwidth_bps > 0:  # zero, negative, or NaN
                raise ValueError("bandwidth must be positive")
            if _CHUNK * 8 / bandwidth_bps > threading.TIMEOUT_MAX:
                raise ValueError(f"bandwidth {bandwidth_bps:g} bps is too low: one {_CHUNK}-byte "
                                 f"chunk would take over {threading.TIMEOUT_MAX:.3g} s")
        # create_server closes its socket when bind raises OSError, not OverflowError
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"port {port} is outside 0..65535")
        self.snapshot, self.scheme = snapshot, scheme
        # bandwidth is bits/sec to match how links are quoted
        self._rate = None if bandwidth_bps is None else bandwidth_bps / 8
        pdus = payload_pdus(snapshot, scheme)
        self.payload_pdu_count = len(pdus)
        sid = snapshot.session_id
        self._response = b"".join(wire.serialize_each(
            [wire.CacheResponse(sid), *pdus, wire.EndOfData(sid, snapshot.serial)]))
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._sock = socket.create_server((host, port), family=family, backlog=16)
        self._closed = threading.Event()
        self._conns: set[socket.socket] = set()  # accepted and not yet closed
        self._conns_lock = threading.Lock()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    @property
    def response_bytes(self) -> int:
        return len(self._response)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:  # close() shut the socket down, or, say, EMFILE
                if self._closed.wait(_ACCEPT_RETRY_S):
                    return
                continue
            with self._conns_lock:
                if self._closed.is_set():  # accepted after close() shut the others down
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn, peer), daemon=True).start()

    def _send(self, conn: socket.socket, blob: bytes, peer) -> None:
        """Send the response, paced: no chunk leaves before its end offset / rate s; log it."""
        t0 = time.perf_counter()
        if not self._rate:
            conn.sendall(blob)
        else:
            view, start = memoryview(blob), time.monotonic()
            for at in range(0, len(blob), _CHUNK):
                delay = start + min(at + _CHUNK, len(blob)) / self._rate - time.monotonic()
                if delay > 0 and self._closed.wait(delay):
                    return  # cut short by close(): not logged as served
                conn.sendall(view[at : at + _CHUNK])
        log.info("served %s pdus=%d bytes=%d micros=%d peer=%s", self.scheme,
                 self.payload_pdu_count, len(blob), int((time.perf_counter() - t0) * 1e6), peer)

    def _serve_conn(self, conn: socket.socket, peer) -> None:
        session = ServerSession(self._response)
        try:
            with conn:
                while not self._closed.is_set() and (data := conn.recv(4096)):
                    replies, close = session.receive(data)
                    for reply in replies:
                        if reply is session.response:
                            self._send(conn, reply, peer)
                        else:
                            conn.sendall(reply)
                    if close:
                        return
        except OSError:
            return
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

    def close(self) -> None:
        """Stop listening, end every live connection and wait for the accept thread to end."""
        with self._conns_lock:
            self._closed.set()
            # wakes the accept() blocked in the accept thread, and the recv()
            # of each connection's handler; close alone does neither
            for sock in (self._sock, *self._conns):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._sock.close()
        self._accept_thread.join()

    def __enter__(self) -> "RtrServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_NO_PREFIXES: frozenset[Prefix] = frozenset()


def decode_payload_pdu(
    pdu: wire.RtrPdu, cfg: HybridConfig
) -> tuple[int, tuple[AddressBlock, ...], AbstractSet[Prefix]]:
    """One payload PDU's AS, its maxLength blocks and its bitmap-decoded prefixes.

    Raises wire.FramingError on a withdrawal, on a sub-tree block the
    hanging-level profile cannot decode, and on a PDU that is no payload.
    """
    kind = type(pdu)
    if kind is wire.PrefixPdu:
        if not pdu.flags & 1:
            raise wire.FramingError("withdrawal PDU in an authorization payload")
        # wire's prefix builder checked prefixlen <= max_length <= width
        return pdu.asn, (_new_block((pdu.prefix, pdu.max_length)),), _NO_PREFIXES
    if kind is wire.SubTreePdu:
        pairs: Iterable[tuple[int, int]] = ((pdu.subtree_id, pdu.bitmap),)
    elif kind is wire.SubTreeAggPdu:
        pairs = pdu.blocks
    else:
        raise wire.FramingError(f"unexpected PDU {kind.__name__} in payload")
    family = pdu.family
    levels = cfg.hanging[family]
    out: AbstractSet[Prefix] = _NO_PREFIXES
    for sid, bitmap in pairs:
        try:
            if bitmap < 2:  # no node bit: the checked constructor raises, in its own order
                SubTreeBlock(family, sid, bitmap)
            flag, prefixes = decode_block(levels, _new_subtree_block((family, sid, bitmap)))
        except ValueError as exc:
            raise wire.FramingError(f"bad sub-tree block: {exc}") from None
        if flag:
            raise wire.FramingError("withdrawal block in an authorization payload")
        if out:
            out |= prefixes
        else:
            out = prefixes  # decode_block's own set: the first block needs no copy
    return pdu.asn, (), out


class ClientSession:
    """One router's reset-query sync, without I/O: the per-AS ``map`` and ``report``.

    ``receive`` takes the cache's next bytes; returns True once End of Data
    has arrived.  A prefix run folds from its bytes, one ``expand`` per PDU,
    each AS's first set kept uncopied.  Past ``deadline`` (``time.monotonic``),
    End of Data or a maxLength PDU of height above 0 raises TransportError.
    """

    def __init__(self, cfg: HybridConfig, deadline: float):
        self.cfg, self.deadline = cfg, deadline
        self.map: dict[int, set[Prefix]] = {}
        self.report = SyncReport()
        self._reader = wire.PduReader(prefix_runs=True)
        self._got_cache_response = False

    def receive(self, data: bytes) -> bool:
        report = self.report
        report.total_bytes += len(data)
        try:
            pdus = self._reader.feed(data)
        except wire.UnsupportedVersion as exc:
            raise ProtocolError(str(exc)) from None
        except wire.FramingError as exc:
            raise ProtocolError(f"unparseable PDU: {exc}") from None
        # hot names as locals; expand and decode_block stay sync lookups, which the tracer wraps
        new_block, new_prefix, adopt = _new_block, _new_prefix, self.map.setdefault
        got_cache_response, deadline = self._got_cache_response, self.deadline
        for pdu in pdus:
            kind = type(pdu)
            if kind is wire.PrefixRun and got_cache_response:
                lay, raw = pdu
                family, width, v6 = lay.family, WIDTH[lay.family], lay.addr_bytes != 4
                host = _HOST_MASK[family]
                for fields in lay.prefix_read.iter_unpack(raw):
                    flags, plen, maxlen, bits, asn = fields
                    if v6:
                        bits = int.from_bytes(bits, "big")
                    if not (plen == maxlen <= width and not bits & host[plen]):
                        if not (plen <= maxlen <= width and not bits & host[plen]):
                            try:  # the builder raises the text of the check that failed
                                wire._prefix_builder(lay)(fields)
                            except wire.FramingError as exc:
                                raise ProtocolError(f"unparseable PDU: {exc}") from None
                        if time.monotonic() > deadline:  # a taller block: expand costs more
                            raise TransportError("recv: timed out")
                    if not flags & 1:
                        raise ProtocolError("withdrawal PDU in an authorization payload")
                    prefixes = expand(new_block((new_prefix((family, bits, plen)), maxlen)))
                    acc = adopt(asn, prefixes)
                    if acc is not prefixes:
                        acc |= prefixes
                report.pdu_count += len(raw) // lay.prefix_len
            elif got_cache_response and kind in _SUBTREE_TYPES:
                try:
                    asn, _, prefixes = decode_payload_pdu(pdu, self.cfg)
                except wire.FramingError as exc:
                    raise ProtocolError(str(exc)) from None
                report.pdu_count += 1
                acc = adopt(asn, prefixes)
                if acc is not prefixes:
                    acc |= prefixes
            elif kind is wire.ErrorReport:
                raise CacheErrorReport(pdu)
            elif not got_cache_response:
                if kind is not wire.CacheResponse:
                    got = wire.PrefixPdu if kind is wire.PrefixRun else kind
                    raise ProtocolError(f"expected cache response, got {got.__name__}")
                got_cache_response = self._got_cache_response = True
                report.session_id = pdu.session_id
            elif kind is wire.EndOfData:
                if pdu.session_id != report.session_id:
                    raise ProtocolError("session id changed mid-response")
                if time.monotonic() > deadline:  # the last taller block ran past it
                    raise TransportError("recv: timed out")
                report.serial = pdu.serial
                report.decode_count = sum(len(s) for s in self.map.values())
                return True
            elif kind is wire.UnknownPdu:
                report.skipped_unknown += 1
            else:
                raise ProtocolError(f"unexpected PDU {kind.__name__} in payload")
        return False


def fetch(
    endpoint: tuple[str, int],
    cfg: HybridConfig | None = None,
    timeout: float = 30.0,
) -> tuple[dict[int, set[Prefix]], SyncReport]:
    """Run one reset-query sync; returns (asn -> prefixes, transfer report).

    ``timeout`` bounds the whole sync, decoding included.  A port outside
    1..65535, or a ``timeout`` not positive and finite, raises ValueError.
    """
    if not 1 <= endpoint[1] <= 0xFFFF:
        raise ValueError(f"port {endpoint[1]} is outside 1..65535")
    # settimeout takes 0 as non-blocking and overflows on inf
    if not 0 < timeout < math.inf:
        raise ValueError(f"timeout {timeout} is not a positive number of seconds")
    session = ClientSession(cfg or HybridConfig(), time.monotonic() + timeout)
    try:
        conn = socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect {endpoint}: {exc}") from None
    t0 = time.perf_counter()
    with conn:
        try:
            conn.sendall(wire.serialize(wire.ResetQuery()))
        except OSError as exc:
            raise TransportError(f"send: {exc}") from None
        done = False
        while not done:
            try:
                left = session.deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("timed out")  # as a recv past the deadline words it
                conn.settimeout(left)
                data = conn.recv(65536)
            except OSError as exc:
                raise TransportError(f"recv: {exc}") from None
            if not data:
                raise TransportError("connection closed before end of data")
            done = session.receive(data)
    session.report.elapsed = time.perf_counter() - t0
    return session.map, session.report
