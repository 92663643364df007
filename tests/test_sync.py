import errno
import gc
import math
import os
import socket
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hroa import sync, wire
from hroa.hybrid import HybridConfig
from hroa.prefix import V4, V6, AddressBlock, Prefix, expand, parse_prefix
from hroa.sync import (
    CacheErrorReport,
    CacheSnapshot,
    ProtocolError,
    RtrServer,
    SyncError,
    SyncReport,
    TransportError,
    decode_payload_pdu,
    fetch,
    payload_pdus,
)
from hroa.workload import synthetic_scattered

FIG_INPUT = {
    7497: [
        parse_prefix("202.127.16.0/20"),
        parse_prefix("202.127.16.0/21"),
        parse_prefix("202.127.16.0/22"),
        parse_prefix("202.127.20.0/22"),
    ]
}


def _snapshot(inputs=None, **kw):
    return CacheSnapshot.build(inputs or FIG_INPUT, session_id=0x1234, **kw)


def test_snapshot_canonicalizes_prefix_input():
    snap = _snapshot()
    assert snap.blocks[7497] == (
        AddressBlock(parse_prefix("202.127.16.0/20"), 20),
        AddressBlock(parse_prefix("202.127.16.0/21"), 22),
    )
    assert snap.authorized_map() == {7497: set(FIG_INPUT[7497])}


def test_snapshot_recompresses_dual_stack_as():
    # one AS with rows of both families: each family is compressed on its own
    inputs = {
        64500: [
            AddressBlock(parse_prefix("192.0.2.0/24"), 24),
            AddressBlock(parse_prefix("192.0.2.0/25"), 25),
            AddressBlock(parse_prefix("192.0.2.128/25"), 25),
            AddressBlock(parse_prefix("2001:db8::/64"), 66),
        ]
    }
    snap = _snapshot(inputs, recompress=True)
    assert snap.blocks[64500] == (
        AddressBlock(parse_prefix("192.0.2.0/24"), 25),
        AddressBlock(parse_prefix("2001:db8::/64"), 66),
    )
    assert snap.authorized_map() == _snapshot(inputs).authorized_map()
    with RtrServer(snap, "mroa") as server:
        got, report = fetch(server.endpoint)
    assert got == snap.authorized_map() and report.pdu_count == 2


def test_payload_pdu_counts_per_scheme():
    snap = _snapshot()
    assert len(payload_pdus(snap, "sroa")) == 4
    assert len(payload_pdus(snap, "troa")) == 2
    assert len(payload_pdus(snap, "mroa")) == 2
    assert len(payload_pdus(snap, "hroa")) == 1
    assert len(payload_pdus(snap, "ahroa")) == 1
    with pytest.raises(ValueError):
        payload_pdus(snap, "xroa")


def test_payload_pdus_split_tall_blocks():
    snap = _snapshot({64500: [AddressBlock(parse_prefix("10.0.0.0/8"), 16)]})
    (pdu,) = payload_pdus(snap, "hroa")
    assert isinstance(pdu, wire.PrefixPdu)
    assert pdu.max_length == 16
    mixed = _snapshot(
        {
            64500: [
                AddressBlock(parse_prefix("10.0.0.0/8"), 16),
                AddressBlock(parse_prefix("192.0.2.0/24"), 24),
            ]
        }
    )
    kinds = [type(p).__name__ for p in payload_pdus(mixed, "hroa")]
    assert kinds == ["PrefixPdu", "SubTreePdu"]
    kinds = [type(p).__name__ for p in payload_pdus(mixed, "ahroa")]
    assert kinds == ["PrefixPdu", "SubTreeAggPdu"]


def test_hybrid_split_runs_once_and_only_for_bitmap_schemes(monkeypatch):
    calls = []
    real = sync.hybrid_encode

    def counting(cfg, blocks):
        calls.append(blocks)
        return real(cfg, blocks)

    monkeypatch.setattr(sync, "hybrid_encode", counting)
    inputs = dict(FIG_INPUT)
    inputs[64500] = [
        AddressBlock(parse_prefix("10.0.0.0/8"), 16),
        AddressBlock(parse_prefix("2001:db8::/32"), 32),
    ]
    snap = _snapshot(inputs)
    for scheme in ("sroa", "troa", "mroa"):
        payload_pdus(snap, scheme)
    assert calls == []
    for scheme in ("hroa", "ahroa"):
        RtrServer(snap, scheme).close()
    assert sorted(calls) == sorted(snap.blocks.values())


def test_server_closes_its_socket_when_bind_fails(monkeypatch):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        made = []
        real = socket.socket
        monkeypatch.setattr(socket, "socket", lambda *a: made.append(real(*a)) or made[-1])
        with pytest.raises(OSError):
            RtrServer(_snapshot(), "hroa", port=held.getsockname()[1])
    assert len(made) == 1 and made[0].fileno() == -1


@pytest.mark.parametrize("port", [-1, 0x10000])
def test_server_refuses_a_port_out_of_range(monkeypatch, port):
    made = []
    real = socket.socket
    monkeypatch.setattr(socket, "socket", lambda *a: made.append(real(*a)) or made[-1])
    with pytest.raises(ValueError, match=f"port {port} is outside 0..65535"):
        RtrServer(_snapshot(), "hroa", port=port)
    assert all(s.fileno() == -1 for s in made)


@pytest.mark.parametrize(
    "session_id, serial, message",
    [
        (0x10000, 1, "session_id 65536 is outside 0..65535"),
        (-1, 1, "session_id -1 is outside 0..65535"),
        (1, 1 << 32, "serial 4294967296 is outside 0..4294967295"),
        (1, -1, "serial -1 is outside 0..4294967295"),
    ],
)
def test_snapshot_refuses_a_session_or_serial_the_wire_cannot_carry(session_id, serial, message):
    with pytest.raises(ValueError) as info:
        CacheSnapshot.build(FIG_INPUT, session_id=session_id, serial=serial)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        CacheSnapshot(session_id, serial, {}, HybridConfig())
    assert str(info.value) == message


def test_fetch_refuses_a_port_out_of_range_before_connecting(monkeypatch):
    calls = []
    monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=r"^port 70000 is outside 1\.\.65535$"):
        fetch(("127.0.0.1", 70000))
    assert calls == []


@pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf])
def test_fetch_refuses_a_timeout_that_is_not_positive_and_finite(monkeypatch, timeout):
    calls = []
    monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError) as info:
        fetch(("127.0.0.1", 4464), timeout=timeout)
    assert str(info.value) == f"timeout {timeout} is not a positive number of seconds"
    assert calls == []


def test_server_on_an_ipv6_host_serves_a_fetch():
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError as exc:
        pytest.skip(f"cannot bind ::1: {exc}")
    snap = _snapshot()
    with RtrServer(snap, "ahroa", host="::1") as server:
        host, port = server.endpoint
        assert host == "::1"
        got, _ = fetch((host, port))
    assert got == snap.authorized_map()


def test_loopback_fetch_all_schemes():
    snap = _snapshot()
    want = snap.authorized_map()
    sizes = {}
    for scheme in ("mroa", "hroa", "ahroa"):
        with RtrServer(snap, scheme) as server:
            got, report = fetch(server.endpoint)
        assert got == want
        assert report.session_id == 0x1234
        assert report.serial == 1
        assert report.decode_count == 4
        assert report.total_bytes == server.response_bytes
        sizes[scheme] = report.total_bytes
    assert sizes["hroa"] < sizes["mroa"]
    assert sizes["ahroa"] <= sizes["hroa"]


def test_loopback_fetch_synthetic_scattered():
    w = synthetic_scattered(300, seed=4)
    snap = CacheSnapshot.build(w, session_id=7)
    want = snap.authorized_map()
    counts = {}
    for scheme in ("mroa", "hroa", "ahroa"):
        with RtrServer(snap, scheme) as server:
            got, report = fetch(server.endpoint)
        assert got == want
        counts[scheme] = report.pdu_count
    assert counts["mroa"] == 300
    assert counts["hroa"] < counts["mroa"]
    assert counts["ahroa"] < counts["hroa"]


def test_aggregated_group_over_the_length_cap_is_split():
    # 8,191 /24s in distinct level-20 sub-trees: one pair more than a
    # single v4 aggregated PDU holds
    count = wire.agg_capacity(V4) + 1
    inputs = {64500: [Prefix(V4, (10 << 24) + (i << 12), 24) for i in range(count)]}
    snap = CacheSnapshot.build(inputs, session_id=3)
    pdus = payload_pdus(snap, "ahroa")
    assert [len(p.blocks) for p in pdus] == [count - 1, 1]
    with RtrServer(snap, "ahroa") as server:
        got, report = fetch(server.endpoint)
    assert got == {64500: set(inputs[64500])}
    assert report.pdu_count == 2


def test_close_ends_accept_thread_and_frees_server():
    snap = _snapshot()
    baseline = threading.active_count()
    accept_threads = []
    refs = []
    for _ in range(5):
        server = RtrServer(snap, "hroa")
        fetch(server.endpoint)
        server.close()
        accept_threads.append(server._accept_thread)
        refs.append(weakref.ref(server))
        del server
    assert not any(t.is_alive() for t in accept_threads)
    deadline = time.monotonic() + 5
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)  # connection threads end once they see the client hang up
    # threads of earlier tests may end meanwhile, so the count can only drop
    assert threading.active_count() <= baseline
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_failed_accept_does_not_end_the_accept_loop(monkeypatch):
    # as when the process runs out of file descriptors: the next accept succeeds
    class FailsFirstAccept(socket.socket):
        failed = False

        def accept(self):
            if not self.failed:
                self.failed = True
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return super().accept()

    listeners = []
    create_server = socket.create_server

    def create_failing_server(*args, **kwargs):
        listeners.append(FailsFirstAccept(fileno=create_server(*args, **kwargs).detach()))
        return listeners[-1]

    monkeypatch.setattr(socket, "create_server", create_failing_server)
    snap = _snapshot()
    with RtrServer(snap, "hroa") as server:
        monkeypatch.undo()
        got, report = fetch(server.endpoint, timeout=5)
    assert [sock.failed for sock in listeners] == [True]
    assert got == snap.authorized_map() and report.pdu_count == 1
    assert not server._accept_thread.is_alive()


def test_custom_config_round_trip():
    from hroa.bmcodec import HangingLevels
    from hroa.prefix import V4, V6

    cfg = HybridConfig(
        delta_l_threshold=math.inf,
        hanging={
            V4: HangingLevels.multiples_of(4, V4),
            V6: HangingLevels.multiples_of(4, V6),
        },
    )
    # a /18 hangs at level 16, which only the multiples-of-4 profile has
    inputs = {64500: [parse_prefix("10.0.0.0/18")]}
    snap = CacheSnapshot.build(inputs, cfg=cfg, session_id=1)
    with RtrServer(snap, "hroa") as server:
        got, _ = fetch(server.endpoint, cfg=cfg)
    assert got == snap.authorized_map()
    # a client on the default levels must fail loudly, not mis-decode
    with RtrServer(snap, "hroa") as server:
        with pytest.raises(ProtocolError):
            fetch(server.endpoint)


def test_sequential_fetches_share_one_server():
    snap = _snapshot()
    with RtrServer(snap, "hroa") as server:
        for _ in range(3):
            got, _ = fetch(server.endpoint)
            assert got == snap.authorized_map()


def _exchange_raw(server: RtrServer, raw: bytes) -> bytes:
    """Send raw bytes on a new connection; the bytes the server sends until it hangs up."""
    got = bytearray()
    with socket.create_connection(server.endpoint, timeout=5) as conn:
        conn.sendall(raw)
        while data := conn.recv(65536):
            got += data
    return bytes(got)


def _exchange(server: RtrServer, raw: bytes) -> list:
    """Send raw bytes on a new connection; the PDUs the server sends until it hangs up."""
    reader = wire.PduReader()
    pdus = reader.feed(_exchange_raw(server, raw))
    assert reader.pending == 0
    return pdus


def _at_version(raw: bytes, version: int) -> bytes:
    """A serialized PDU with its version byte patched."""
    return bytes((version,)) + raw[1:]


def _wait_for_threads(baseline: int) -> None:
    deadline = time.monotonic() + 5
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)  # connection threads end once they see the client hang up
    assert threading.active_count() <= baseline


def test_server_rejects_non_reset_pdus():
    # RFC 8210 Unsupported PDU Type (5), echoing the PDU; then the server hangs up
    refused = [
        wire.serialize(wire.CacheResponse(1)),
        wire.serialize(wire.PrefixPdu(1, parse_prefix("192.0.2.0/24"), 24, 64500)),
        bytes.fromhex("016300000000000cdeadbeef"),
        # an IPv4 Prefix PDU with 0x1234 in its 16-bit field and 0x07 in its
        # reserved byte, which the parser reads past: the echo keeps both
        bytes.fromhex("0104123400000014" "01181807" "c0000200" "0000fbf4"),
    ]
    with RtrServer(_snapshot(), "hroa") as server:
        baseline = threading.active_count()
        for raw in refused:
            (report,) = _exchange(server, raw)
            assert type(report) is wire.ErrorReport
            assert (report.error_code, report.echoed) == (5, raw)
            assert report.text == "only reset query and serial query are supported"
        _wait_for_threads(baseline)


def test_server_answers_serial_query_with_cache_reset():
    # version 1, type 1, session 0x1234, length 12, serial 41
    serial_query = bytes.fromhex("010112340000000c00000029")
    with RtrServer(_snapshot(), "hroa") as server:
        baseline = threading.active_count()
        with socket.create_connection(server.endpoint, timeout=5) as conn:
            conn.sendall(serial_query)
            reset = b""
            while len(reset) < 8 and (data := conn.recv(8 - len(reset))):
                reset += data
            assert reset == bytes.fromhex("0108000000000008")  # Cache Reset
            # the connection stays open for the router's Reset Query
            conn.sendall(wire.serialize(wire.ResetQuery()))
            want = len(server._response)
            got = b""
            while len(got) < want and (data := conn.recv(65536)):
                got += data
        assert got == server._response
        _wait_for_threads(baseline)


def _recv_exactly(conn: socket.socket, size: int) -> bytes:
    got = b""
    while len(got) < size and (data := conn.recv(size - len(got))):
        got += data
    return got


def test_server_answers_a_serial_and_a_reset_query_in_one_segment():
    serial_query = bytes.fromhex("010112340000000c00000029")
    with RtrServer(_snapshot(), "hroa") as server:
        with socket.create_connection(server.endpoint, timeout=5) as conn:
            conn.sendall(serial_query + wire.serialize(wire.ResetQuery()))
            # Cache Reset, then the whole response
            want = bytes.fromhex("0108000000000008") + server._response
            assert _recv_exactly(conn, len(want)) == want


def test_server_answers_a_reset_query_sent_one_byte_at_a_time():
    with RtrServer(_snapshot(), "hroa") as server:
        with socket.create_connection(server.endpoint, timeout=5) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in wire.serialize(wire.ResetQuery()):
                conn.sendall(bytes([byte]))
                time.sleep(0.01)  # lets the server see each byte on its own
            assert _recv_exactly(conn, len(server._response)) == server._response


def test_server_does_not_answer_an_error_report():
    # RFC 8210 5.11: an error report is never answered with another
    with RtrServer(_snapshot(), "hroa") as server:
        baseline = threading.active_count()
        assert _exchange(server, wire.serialize(wire.ErrorReport(2, b"", "no data"))) == []
        _wait_for_threads(baseline)


def test_server_refuses_another_protocol_version():
    # RFC 8210 section 7: Unsupported Protocol Version (4), echoing the PDU;
    # then the server hangs up.  A router's Error Report of any version gets no reply.
    refused = [
        bytes.fromhex("0002000000000008"),  # Reset Query, version 0
        bytes.fromhex("0202000000000008"),  # Reset Query, version 2
        bytes.fromhex("0702000000000008"),  # Reset Query, version 7
        bytes.fromhex("020112340000000c00000029"),  # Serial Query, version 2
    ]
    with RtrServer(_snapshot(), "hroa") as server:
        baseline = threading.active_count()
        for raw in refused:
            # byte for byte: a version-1 report, whatever the query's version
            assert _exchange_raw(server, raw) == wire.serialize(
                wire.ErrorReport(4, raw, "only protocol version 1 is supported"))
        report = _at_version(wire.serialize(wire.ErrorReport(2, b"", "no data")), 0)
        assert _exchange_raw(server, report) == b""
        _wait_for_threads(baseline)


def test_server_serves_the_query_before_a_malformed_pdu_in_one_segment():
    # a Reset Query and a PDU whose length (4) is below the header size, in one send
    snap = _snapshot()
    with RtrServer(snap, "hroa") as server:
        with socket.create_connection(server.endpoint, timeout=5) as conn:
            conn.sendall(wire.serialize(wire.ResetQuery()) + bytes.fromhex("0102000000000004"))
            reader = wire.PduReader()
            pdus = []
            while data := conn.recv(65536):
                pdus.extend(reader.feed(data))
    kinds = [type(p) for p in pdus]
    assert kinds == [
        wire.CacheResponse, wire.SubTreePdu, wire.EndOfData, wire.ErrorReport
    ]
    assert b"".join(map(wire.serialize, pdus[:3])) == server._response
    assert pdus[3].text == "PDU length 4 below header size"


def test_fetch_connect_failure():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    with pytest.raises(TransportError):
        fetch(("127.0.0.1", port), timeout=2)


@pytest.fixture
def raw_cache():
    """A scripted cache: each accepted connection gets ``head``, then ``payload``.

    ``head`` is a version-1 Cache Response of session 7 unless given.
    """
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    threads = []

    def start(payload: bytes, connections: int, hang_up: bool = False, head: bytes | None = None):
        if head is None:
            head = wire.serialize(wire.CacheResponse(7))

        def run():
            for _ in range(connections):
                conn, _ = srv.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(head + payload)
                    if not hang_up:
                        conn.recv(4096)  # until the client hangs up

        t = threading.Thread(target=run, daemon=True)
        t.start()
        threads.append(t)
        return srv.getsockname()

    yield start
    srv.close()
    for t in threads:
        t.join(timeout=5)


def _host_bits_pdu() -> bytes:
    raw = bytearray(wire.serialize(wire.PrefixPdu(1, parse_prefix("192.0.2.0/24"), 24, 64500)))
    raw[15] = 1  # last address byte: a host bit below /24
    return bytes(raw)


BAD_PAYLOADS = {
    "withdrawal": (
        wire.serialize(wire.PrefixPdu(0, parse_prefix("192.0.2.0/24"), 24, 64500)),
        "withdrawal PDU in an authorization payload",
    ),
    "host-bits": (_host_bits_pdu(), "unparseable PDU: host bits set below /24"),
    # id 0b1101: level 3 (its leading 1 bit), which the default 0,5,10,... profile lacks
    "level-not-in-profile": (
        wire.serialize(wire.SubTreePdu(V4, 0b1101, 2, 64500)),
        "bad sub-tree block: 3 is not a profile level",
    ),
    # id 0b100101: level 5, a profile level; the bitmap holds no node bit
    "subtree-bitmap-0": (
        wire.serialize(wire.SubTreePdu(V4, 0b100101, 0, 64500)),
        "bad sub-tree block: bitmap carries no sub-tree nodes",
    ),
    "subtree-flag-only": (
        wire.serialize(wire.SubTreePdu(V4, 0b100101, 1, 64500)),
        "bad sub-tree block: bitmap carries no sub-tree nodes",
    ),
    "aggregate-withdrawal-block": (
        wire.serialize(wire.SubTreeAggPdu(V4, 64500, ((0b100101, 2), (0b100110, 3)))),
        "withdrawal block in an authorization payload",
    ),
    # a level-30 sub-tree has height 3, so node bits 1..7; bit 8 lies past it
    "node-bits-beyond-height": (
        wire.serialize(wire.SubTreePdu(V4, 1 << 30 | 5, 2 | 1 << 8, 64500)),
        "bad sub-tree block: bitmap has node bits beyond the sub-tree",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
def test_fetch_rejects_a_bad_payload_pdu(raw_cache, capsys, case):
    from hroa.cli import main

    payload, message = BAD_PAYLOADS[case]
    host, port = raw_cache(payload, connections=2)
    with pytest.raises(ProtocolError) as exc:
        fetch((host, port), timeout=5)
    assert str(exc.value) == message
    assert main(["fetch", f"{host}:{port}", "--timeout", "5"]) == 3
    assert message in capsys.readouterr().err


# responses that break off after the Cache Response (session id 7), and what fetch raises
BROKEN_RESPONSES = {
    "error-report": (
        wire.serialize(wire.ErrorReport(2, b"", "no data available")),
        CacheErrorReport,
        "cache error 2: no data available",
    ),
    "session-changed": (
        wire.serialize(wire.EndOfData(8, 1)),
        ProtocolError,
        "session id changed mid-response",
    ),
    "second-cache-response": (
        wire.serialize(wire.CacheResponse(7)),
        ProtocolError,
        "unexpected PDU CacheResponse in payload",
    ),
    "hang-up": (b"", TransportError, "connection closed before end of data"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_RESPONSES))
def test_fetch_fails_typed_on_a_broken_response(raw_cache, capsys, case):
    from hroa.cli import main

    payload, error, message = BROKEN_RESPONSES[case]
    host, port = raw_cache(payload, connections=2, hang_up=case == "hang-up")
    with pytest.raises(SyncError) as exc:
        fetch((host, port), timeout=5)
    assert (type(exc.value), str(exc.value)) == (error, message)
    assert main(["fetch", f"{host}:{port}", "--timeout", "5"]) == 3
    assert capsys.readouterr().err == f"hroa: {message}\n"


_V1_PREFIX = wire.serialize(wire.PrefixPdu(1, parse_prefix("192.0.2.0/24"), 24, 64500))
_V1_END = wire.serialize(wire.EndOfData(7, 1))

# responses with one PDU of protocol version 0: (Cache Response, payload, what fetch raises)
OTHER_VERSION_RESPONSES = {
    "cache-response": (
        _at_version(wire.serialize(wire.CacheResponse(7)), 0),
        _V1_PREFIX + _V1_END,
        "CacheResponse of protocol version 0; only version 1 is supported",
    ),
    # the middle PDU of a run of three prefix PDUs, which the reader parses as one run
    "prefix-mid-payload": (
        None,
        _V1_PREFIX
        + _at_version(wire.serialize(wire.PrefixPdu(1, parse_prefix("192.0.3.0/24"), 24, 64500)), 0)
        + wire.serialize(wire.PrefixPdu(1, parse_prefix("192.0.4.0/24"), 24, 64500))
        + _V1_END,
        "PrefixPdu of protocol version 0; only version 1 is supported",
    ),
    "subtree": (
        None,
        _at_version(wire.serialize(wire.SubTreePdu(V4, 0b100101, 2, 64500)), 0) + _V1_END,
        "SubTreePdu of protocol version 0; only version 1 is supported",
    ),
    "aggregate": (
        None,
        _at_version(wire.serialize(wire.SubTreeAggPdu(V4, 64500, ((0b100101, 2),))), 0) + _V1_END,
        "SubTreeAggPdu of protocol version 0; only version 1 is supported",
    ),
    "end-of-data": (
        None,
        _V1_PREFIX + _at_version(_V1_END, 0),
        "EndOfData of protocol version 0; only version 1 is supported",
    ),
}


@pytest.mark.parametrize("case", sorted(OTHER_VERSION_RESPONSES))
def test_fetch_refuses_another_protocol_version(raw_cache, capsys, case):
    from hroa.cli import main

    head, payload, message = OTHER_VERSION_RESPONSES[case]
    host, port = raw_cache(payload, connections=2, head=head)
    with pytest.raises(ProtocolError) as exc:
        fetch((host, port), timeout=5)
    assert str(exc.value) == message
    assert main(["fetch", f"{host}:{port}", "--timeout", "5"]) == 3
    assert capsys.readouterr().err == f"hroa: {message}\n"


# a good prefix PDU of each family, which the faults below patch one byte of
_GOOD_PREFIX = {
    V4: wire.serialize(wire.PrefixPdu(1, parse_prefix("192.0.2.0/24"), 24, 64500)),
    V6: wire.serialize(wire.PrefixPdu(1, parse_prefix("2001:db8::/32"), 32, 64500)),
}

# (family, byte offset, new value, what fetch raises); a prefix PDU holds its
# flags at byte 8, prefixlen at 9, max_length at 10 and its address from 12
PREFIX_FAULTS = {
    "v4-host-bits": (V4, 15, 1, "unparseable PDU: host bits set below /24"),
    "v4-prefixlen-past-width": (V4, 9, 33, "unparseable PDU: prefixlen 33 out of range for v4"),
    "v4-max-length-below-prefixlen": (V4, 10, 23, "unparseable PDU: max_length 23 out of range"),
    "v4-max-length-past-width": (V4, 10, 33, "unparseable PDU: max_length 33 out of range"),
    "v4-withdrawal": (V4, 8, 0, "withdrawal PDU in an authorization payload"),
    "v6-host-bits": (V6, 27, 1, "unparseable PDU: host bits set below /32"),
    "v6-prefixlen-past-width": (V6, 9, 129, "unparseable PDU: prefixlen 129 out of range for v6"),
    "v6-max-length-below-prefixlen": (V6, 10, 31, "unparseable PDU: max_length 31 out of range"),
    "v6-max-length-past-width": (V6, 10, 129, "unparseable PDU: max_length 129 out of range"),
    "v6-withdrawal": (V6, 8, 0, "withdrawal PDU in an authorization payload"),
}

# where the bad PDU sits: (good PDUs of its family before it, good PDUs after it);
# the last puts it first in the second match of a run
PREFIX_FAULT_PLACES = {"first": (0, 0), "mid-run": (3, 2), "past-the-run-bound": (64, 1)}


@pytest.mark.parametrize("place", sorted(PREFIX_FAULT_PLACES))
@pytest.mark.parametrize("fault", sorted(PREFIX_FAULTS))
def test_fetch_rejects_a_bad_prefix_pdu_anywhere_in_a_run(raw_cache, capsys, fault, place):
    from hroa.cli import main

    assert wire._RUN_PDUS == 64
    family, at, value, message = PREFIX_FAULTS[fault]
    good = _GOOD_PREFIX[family]
    bad = good[:at] + bytes((value,)) + good[at + 1 :]
    before, after = PREFIX_FAULT_PLACES[place]
    host, port = raw_cache(good * before + bad + good * after + _V1_END, connections=2)
    with pytest.raises(SyncError) as exc:
        fetch((host, port), timeout=5)
    assert (type(exc.value), str(exc.value)) == (ProtocolError, message)
    assert main(["fetch", f"{host}:{port}", "--timeout", "5"]) == 3
    assert capsys.readouterr().err == f"hroa: {message}\n"


# what a cache sends in place of its Cache Response, and the type fetch names
BEFORE_CACHE_RESPONSE = {
    "prefix-run": (_GOOD_PREFIX[V4] * 3 + _GOOD_PREFIX[V6], "PrefixPdu"),
    "subtree": (wire.serialize(wire.SubTreePdu(V4, 0b100101, 2, 64500)), "SubTreePdu"),
    "aggregate": (wire.serialize(wire.SubTreeAggPdu(V4, 64500, ((0b100101, 2),))), "SubTreeAggPdu"),
    "end-of-data": (b"", "EndOfData"),
}


def test_fetch_requires_cache_response_first(raw_cache, capsys):
    from hroa.cli import main

    for payload, kind in BEFORE_CACHE_RESPONSE.values():
        message = f"expected cache response, got {kind}"
        host, port = raw_cache(payload + _V1_END, connections=2, head=b"")
        with pytest.raises(SyncError) as exc:
            fetch((host, port), timeout=5)
        assert (type(exc.value), str(exc.value)) == (ProtocolError, message)
        assert main(["fetch", f"{host}:{port}", "--timeout", "5"]) == 3
        assert capsys.readouterr().err == f"hroa: {message}\n"


def test_fetch_timeout_bounds_the_whole_sync(capsys):
    from hroa.cli import main

    # a cache that drip-feeds its response, one byte every 0.2 s, never stalls
    # a single recv for a whole second, so only a whole-sync deadline ends it
    srv = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def drip():
        for _ in range(2):
            conn, _ = srv.accept()
            with conn:
                conn.recv(4096)
                for byte in wire.serialize(wire.CacheResponse(7)) * 10:
                    if stop.wait(0.2):
                        break
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        break

    t = threading.Thread(target=drip, daemon=True)
    t.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(TransportError) as exc:
            fetch(srv.getsockname(), timeout=1.0)
        assert time.monotonic() - t0 < 1.5
        assert str(exc.value) == "recv: timed out"
        assert main(["fetch", "%s:%d" % srv.getsockname(), "--timeout", "1"]) == 3
        assert capsys.readouterr().err == "hroa: recv: timed out\n"
    finally:
        stop.set()
        srv.close()
        t.join(timeout=5)
    assert not t.is_alive()


def test_oversized_echo_still_gets_an_error_report(monkeypatch):
    # a legal 65,516-byte PDU of an unknown type from the client; echoing it
    # whole would make the server's report 65,579 bytes, over the length cap
    raw = bytes.fromhex("016300000000ffec") + b"\x01" * 65508  # type 99, length 65,516
    assert len(raw) == 65516
    crashed = []
    monkeypatch.setattr(threading, "excepthook", crashed.append)
    with RtrServer(_snapshot(), "hroa") as server:
        baseline = threading.active_count()
        pdus = _exchange(server, raw)
        _wait_for_threads(baseline)
    assert crashed == []
    assert len(pdus) == 1 and isinstance(pdus[0], wire.ErrorReport)
    report = pdus[0]
    assert report.error_code == 5
    assert report.text == "only reset query and serial query are supported"
    assert len(wire.serialize(report)) == wire.MAX_PDU_LEN
    assert raw.startswith(report.echoed)


def test_fetch_skips_unknown_pdus():
    snap = _snapshot()
    server = RtrServer(snap, "hroa")
    foreign = wire.serialize(wire.UnknownPdu(77, bytes.fromhex("014d000000000008")))
    response = server._response
    try:
        # splice an unknown PDU between cache response and payload
        server._response = response[:8] + foreign + response[8:]
        got, report = fetch(server.endpoint)
        assert got == snap.authorized_map()
        assert report.skipped_unknown == 1
        # RFC 8210 section 7: an unknown PDU of another version is refused, not skipped
        server._response = response[:8] + _at_version(foreign, 2) + response[8:]
        with pytest.raises(ProtocolError, match="^UnknownPdu of protocol version 2; "
                                                "only version 1 is supported$"):
            fetch(server.endpoint)
    finally:
        server.close()


def test_serve_scheme_whitelist():
    snap = _snapshot()
    for scheme in ("sroa", "troa", "nope"):
        with pytest.raises(ValueError):
            RtrServer(snap, scheme)


def test_bandwidth_shaping_slows_fetch():
    cases = [
        (FIG_INPUT, "hroa"),  # a response well under one 4 kB chunk
        (synthetic_scattered(2000, seed=3), "mroa"),  # about ten chunks
    ]
    for inputs, scheme in cases:
        snap = _snapshot(inputs)
        with RtrServer(snap, scheme) as fast_server:
            _, fast = fetch(fast_server.endpoint)
        blob = fast_server.response_bytes
        rate_bps = blob * 8 * 4  # a quarter second of payload
        with RtrServer(snap, scheme, bandwidth_bps=rate_bps) as slow_server:
            t0 = time.monotonic()
            got, slow = fetch(slow_server.endpoint)
            elapsed = time.monotonic() - t0
        assert got == snap.authorized_map()
        # the last byte leaves no sooner than blob / rate after the first
        assert elapsed >= blob / (rate_bps / 8)
        assert elapsed > fast.elapsed


@pytest.mark.parametrize("rate", [0, -1.0, math.nan])  # None, not 0, means unlimited
def test_bad_bandwidth_is_refused(rate):
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        RtrServer(_snapshot(), "hroa", bandwidth_bps=rate)


def test_a_bandwidth_too_low_to_pace_is_refused():
    # one chunk would wait past threading.TIMEOUT_MAX, which no wait accepts
    with pytest.raises(ValueError, match="bandwidth 1e-300 bps is too low"):
        RtrServer(_snapshot(), "hroa", bandwidth_bps=1e-300)


def test_close_ends_a_paced_send():
    snap = _snapshot()
    baseline = threading.active_count()
    server = RtrServer(snap, "hroa", bandwidth_bps=8)  # the 52-byte response takes 52 s
    with socket.create_connection(server.endpoint, timeout=5) as conn:
        conn.sendall(wire.serialize(wire.ResetQuery()))
        deadline = time.monotonic() + 5
        while not server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # the connection thread reads the query and starts pacing
        server.close()
        deadline = time.monotonic() + 2
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline


def test_close_ends_live_connections():
    snap = _snapshot()
    baseline = threading.active_count()
    server = RtrServer(snap, "hroa")
    with socket.create_connection(server.endpoint, timeout=5) as idle:
        deadline = time.monotonic() + 5
        while not server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._conns  # the idle connection was accepted
        server.close()
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline
        answer = b""
        try:
            idle.sendall(wire.serialize(wire.ResetQuery()))
            while data := idle.recv(4096):
                answer += data
        except OSError:
            pass  # a reset connection answers nothing either
    assert answer == b""


def _reference_fold(response: bytes, cfg: HybridConfig) -> dict:
    """decode_payload_pdu, then expand of each maxLength block, one payload PDU at a time."""
    out = {}
    for pdu in wire.PduReader().feed(response):
        if isinstance(pdu, (wire.PrefixPdu, wire.SubTreePdu, wire.SubTreeAggPdu)):
            asn, blocks, prefixes = decode_payload_pdu(pdu, cfg)
            acc = out.setdefault(asn, set())
            acc |= prefixes
            for block in blocks:
                acc |= expand(block)
    return out


@st.composite
def _dual_stack_blocks(draw):
    """Each AS's blocks, both families; few distinct roots, so sub-trees are shared."""
    inputs = {}
    for asn in draw(st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=4, unique=True)):
        blocks = []
        for _ in range(draw(st.integers(1, 6))):
            family = draw(st.sampled_from((V4, V6)))
            width = 32 if family == V4 else 128
            height = draw(st.integers(0, 6))
            plen = draw(st.integers(0, width - height))
            bits = draw(st.integers(0, 15)) << (width - 4) & ~((1 << (width - plen)) - 1)
            blocks.append(AddressBlock(Prefix(family, bits, plen), plen + height))
        inputs[asn] = blocks
    return inputs


@settings(max_examples=20, deadline=None)
@given(_dual_stack_blocks(), st.sampled_from(sync.SERVE_SCHEMES))
def test_fetch_folds_like_the_per_pdu_decoder(inputs, scheme):
    snap = _snapshot(inputs)
    want = snap.authorized_map()
    with RtrServer(snap, scheme) as server:
        got, report = fetch(server.endpoint, timeout=5)
        reference = _reference_fold(server._response, snap.cfg)
    assert got == want == reference
    assert (report.pdu_count, report.total_bytes, report.decode_count) == (
        server.payload_pdu_count, server.response_bytes, sum(map(len, want.values())))
    # each AS's value is its own set: an adopted set is never shared or frozen
    assert all(type(prefixes) is set for prefixes in got.values())
    assert len({id(prefixes) for prefixes in got.values()}) == len(got)


def test_decode_payload_pdu_reads_flags_bit_0():
    p = parse_prefix("10.0.0.0/24")
    cfg = HybridConfig()
    for flags in (1, 3):
        assert decode_payload_pdu(wire.PrefixPdu(flags, p, 24, 1), cfg) == (
            1, (AddressBlock(p, 24),), set())
    for flags in (0, 2):
        with pytest.raises(wire.FramingError, match="withdrawal PDU"):
            decode_payload_pdu(wire.PrefixPdu(flags, p, 24, 1), cfg)


def test_decode_payload_pdu_refuses_a_pdu_that_is_no_payload():
    with pytest.raises(wire.FramingError) as exc:
        decode_payload_pdu(wire.EndOfData(1, 1), HybridConfig())
    assert str(exc.value) == "unexpected PDU EndOfData in payload"


def test_report_json_round_trips():
    import json

    report = SyncReport(pdu_count=3, total_bytes=96, serial=1, session_id=2)
    data = json.loads(report.to_json())
    assert data["pdu_count"] == 3
    assert set(data) == {
        "pdu_count",
        "total_bytes",
        "elapsed",
        "decode_count",
        "serial",
        "session_id",
        "skipped_unknown",
    }
