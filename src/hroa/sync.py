"""Reset-query synchronization: cache server and fetch client.

The only flow spoken here is the full snapshot: client sends Reset Query,
cache answers Cache Response, every payload PDU of the selected scheme, then
End of Data.  Payload bytes are pre-serialized once per (snapshot, scheme)
so concurrent clients share one blob, optionally paced per connection to
emulate a slow link.  The cache keeps no serial history, so it answers a
Serial Query with Cache Reset and keeps the connection open for the Reset
Query that follows (RFC 8210).  It ends the connection without a reply on a
router's Error Report, and with an Error Report on anything else: code 4
(Unsupported Protocol Version) for a PDU ``wire`` refuses as another version,
code 5 (Unsupported PDU Type) for another type, or code 0 (Corrupt Data) for
bytes that do not frame.  Each connection takes PDUs from one receive buffer
with ``wire.deserialize``: every PDU before a bad one is served, and an echo
is the bytes the router sent.  ``fetch`` handles prefix PDUs first, in a
branch of their own, and hands sub-tree PDUs to ``decode_payload_pdu``; both
look ``expand`` and ``decode_block`` up here at each call, where perfbench's
tracer wraps them.  Neither reads a protocol version: ``wire`` refuses others.
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
from .prefix import V4, V6, AddressBlock, Prefix, _new_block, expand
from .workload import Workload

log = logging.getLogger("hroa.sync")

SCHEMES = ("sroa", "troa", "mroa", "hroa", "ahroa")
SERVE_SCHEMES = ("mroa", "hroa", "ahroa")
_PAYLOAD_TYPES = (wire.PrefixPdu, wire.SubTreePdu, wire.SubTreeAggPdu)
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


# RFC 8210 error codes the server sends
_CORRUPT_DATA = 0
_UNSUPPORTED_VERSION = 4
_UNSUPPORTED_PDU_TYPE = 5


def _error_report(code: int, text: str, echoed: bytes = b"") -> bytes:
    """An error report, its echoed PDU cut short to fit the length cap."""
    room = wire.MAX_PDU_LEN - wire.ERROR_REPORT_OVERHEAD - len(text.encode("utf-8"))
    return wire.serialize(wire.ErrorReport(code, echoed[:room], text))


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
        self.snapshot = snapshot
        self.scheme = scheme
        # bandwidth is bits/sec to match how links are quoted
        self._rate = None if bandwidth_bps is None else bandwidth_bps / 8
        pdus = payload_pdus(snapshot, scheme)
        self.payload_pdu_count = len(pdus)
        self._response = b"".join(wire.serialize_each([
            wire.CacheResponse(snapshot.session_id),
            *pdus,
            wire.EndOfData(snapshot.session_id, snapshot.serial),
        ]))
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

    def _send(self, conn: socket.socket, blob: bytes) -> None:
        """Send the blob; paced, no chunk leaves sooner than its end offset / rate s after the start.

        A paced send stops when the server closes.
        """
        if not self._rate:
            conn.sendall(blob)
            return
        view = memoryview(blob)
        start = time.monotonic()
        for at in range(0, len(blob), _CHUNK):
            delay = start + min(at + _CHUNK, len(blob)) / self._rate - time.monotonic()
            if delay > 0 and self._closed.wait(delay):
                return
            conn.sendall(view[at : at + _CHUNK])

    def _serve_conn(self, conn: socket.socket, peer) -> None:
        pending = bytearray()  # the received bytes, from the first PDU not yet served
        try:
            with conn:
                while not self._closed.is_set():
                    data = conn.recv(4096)
                    if not data:
                        return
                    pending += data
                    while True:
                        try:
                            pdu, used = wire.deserialize(pending)
                        except wire.TruncatedPdu:
                            break  # wait for the rest
                        except wire.UnsupportedVersion as exc:  # RFC 8210 section 7
                            text = f"only protocol version {wire.DEFAULT_VERSION} is supported"
                            echo = bytes(pending[:exc.length])  # the PDU as the router sent it
                            conn.sendall(_error_report(_UNSUPPORTED_VERSION, text, echo))
                            return
                        except wire.FramingError as exc:
                            conn.sendall(_error_report(_CORRUPT_DATA, str(exc)))
                            return
                        kind = type(pdu)
                        if kind is wire.ErrorReport:
                            return  # never answered with another report (RFC 8210 5.11)
                        if kind is wire.ResetQuery:
                            t0 = time.perf_counter()
                            self._send(conn, self._response)
                            log.info(
                                "served %s pdus=%d bytes=%d micros=%d peer=%s",
                                self.scheme,
                                self.payload_pdu_count,
                                len(self._response),
                                int((time.perf_counter() - t0) * 1e6),
                                peer,
                            )
                        elif kind is wire.UnknownPdu and pdu.pdu_type == wire.PDU_SERIAL_QUERY:
                            conn.sendall(wire._CACHE_RESET)  # the router goes on with a Reset Query
                        else:
                            conn.sendall(_error_report(
                                _UNSUPPORTED_PDU_TYPE,
                                "only reset query and serial query are supported",
                                bytes(pending[:used]),  # the PDU as the router sent it
                            ))
                            return
                        del pending[:used]
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


def fetch(
    endpoint: tuple[str, int],
    cfg: HybridConfig | None = None,
    timeout: float = 30.0,
) -> tuple[dict[int, set[Prefix]], SyncReport]:
    """Run one reset-query sync; returns (asn -> prefixes, transfer report).

    ``timeout`` bounds the whole sync, from connect to End of Data.  A PDU
    that ``wire`` refuses as another protocol version raises ProtocolError
    with ``wire``'s text.  Each AS's first decoded set, fresh from ``expand``
    or ``decode_block``, becomes its map entry uncopied; later sets merge
    into it.  Raises ValueError, before connecting, on an endpoint port
    outside 1..65535 or a ``timeout`` that is not a positive finite number.
    """
    if not 1 <= endpoint[1] <= 0xFFFF:
        raise ValueError(f"port {endpoint[1]} is outside 1..65535")
    # settimeout takes 0 as non-blocking and overflows on inf
    if not 0 < timeout < math.inf:
        raise ValueError(f"timeout {timeout} is not a positive number of seconds")
    cfg = cfg or HybridConfig()
    report = SyncReport()
    out: dict[int, set[Prefix]] = {}
    deadline = time.monotonic() + timeout
    try:
        conn = socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect {endpoint}: {exc}") from None
    reader = wire.PduReader()
    payloads = 0
    got_cache_response = False
    done = False
    # hot names as locals; expand and decode_block stay module lookups at each
    # call, where the benchmark's tracer wraps them
    prefix_pdu, new_block, out_get = wire.PrefixPdu, _new_block, out.get
    t0 = time.perf_counter()
    try:
        with conn:
            try:
                conn.sendall(wire.serialize(wire.ResetQuery()))
            except OSError as exc:
                raise TransportError(f"send: {exc}") from None
            while not done:
                try:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError("timed out")  # as a recv past the deadline words it
                    conn.settimeout(left)
                    data = conn.recv(65536)
                except OSError as exc:
                    raise TransportError(f"recv: {exc}") from None
                if not data:
                    raise TransportError("connection closed before end of data")
                report.total_bytes += len(data)
                try:
                    pdus = reader.feed(data)
                except wire.UnsupportedVersion as exc:
                    raise ProtocolError(str(exc)) from None
                except wire.FramingError as exc:
                    raise ProtocolError(f"unparseable PDU: {exc}") from None
                for pdu in pdus:
                    kind = type(pdu)
                    # a payload PDU sets (asn, prefixes) and falls through to the merge below
                    if kind is prefix_pdu and got_cache_response:
                        # checked by wire's prefix builder
                        flags, prefix, max_length, asn = pdu
                        if not flags & 1:
                            raise ProtocolError("withdrawal PDU in an authorization payload")
                        prefixes = expand(new_block((prefix, max_length)))
                    elif got_cache_response and kind in _PAYLOAD_TYPES:
                        try:
                            asn, _, prefixes = decode_payload_pdu(pdu, cfg)
                        except wire.FramingError as exc:
                            raise ProtocolError(str(exc)) from None
                    elif kind is wire.ErrorReport:
                        raise CacheErrorReport(pdu)
                    elif not got_cache_response:
                        if kind is not wire.CacheResponse:
                            raise ProtocolError(f"expected cache response, got {kind.__name__}")
                        got_cache_response = True
                        report.session_id = pdu.session_id
                        continue
                    elif kind is wire.EndOfData:
                        if pdu.session_id != report.session_id:
                            raise ProtocolError("session id changed mid-response")
                        report.serial = pdu.serial
                        done = True
                        break
                    elif kind is wire.UnknownPdu:
                        report.skipped_unknown += 1
                        continue
                    else:
                        raise ProtocolError(f"unexpected PDU {kind.__name__} in payload")
                    payloads += 1
                    acc = out_get(asn)
                    if acc is None:
                        out[asn] = prefixes
                    else:
                        acc |= prefixes
    finally:
        report.elapsed = time.perf_counter() - t0
    report.pdu_count = payloads
    report.decode_count = sum(len(s) for s in out.values())
    return out, report
