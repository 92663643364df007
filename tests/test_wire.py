import copy
import json
import pickle
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hroa import wire
from hroa.bmcodec import HangingLevels, encode_batch
from hroa.prefix import V4, V6, AddressBlock, Prefix, expand, parse_prefix
from hroa.wire import (
    CacheResponse,
    EndOfData,
    ErrorReport,
    FramingError,
    PduReader,
    PrefixPdu,
    ResetQuery,
    SubTreeAggPdu,
    SubTreePdu,
    TruncatedPdu,
    UnknownPdu,
    agg_capacity,
    deserialize,
    serialize,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_pdus.json").read_text())
GOLDEN_HEX = {v["name"]: v["hex"] for v in GOLDEN["vectors"]}

SAMPLE_PDUS = {
    "reset_query": ResetQuery(),
    "cache_response_session_0x1234": CacheResponse(0x1234),
    "ipv4_prefix_announce": PrefixPdu(1, parse_prefix("202.127.16.0/20"), 22, 7497),
    "ipv6_prefix_announce": PrefixPdu(1, parse_prefix("2001:db8::/32"), 48, 64512),
    "end_of_data_defaults": EndOfData(0x1234, 42),
    "error_report": ErrorReport(3, serialize(ResetQuery()), "go away"),
    "ipv4_subtree": SubTreePdu(V4, 1878001, 54, 7497),
    "ipv6_subtree": SubTreePdu(V6, 1, 2, 1),
    "ipv4_subtree_agg_k2": SubTreeAggPdu(V4, 7497, ((1878000, 2), (1878001, 54))),
    "ipv6_subtree_agg_k1": SubTreeAggPdu(V6, 1, ((1, 2),)),
    "unknown_type_99": UnknownPdu(1, 0x63, bytes.fromhex("016300000000000cdeadbeef")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_golden_serialize(name):
    assert serialize(SAMPLE_PDUS[name]).hex() == GOLDEN_HEX[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_golden_deserialize(name):
    raw = bytes.fromhex(GOLDEN_HEX[name])
    pdu, used = deserialize(raw)
    assert used == len(raw)
    assert pdu == SAMPLE_PDUS[name]


@pytest.mark.parametrize("name", sorted(SAMPLE_PDUS))
def test_parsed_pdu_is_the_constructed_value(name):
    built = SAMPLE_PDUS[name]
    raw = serialize(built)
    # feed parses two prefix or sub-tree PDUs in a row as a run, deserialize one by one
    for parsed in (deserialize(raw)[0], *PduReader().feed(raw + raw)):
        assert type(parsed) is type(built)
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert serialize(parsed) == raw
    for copied in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(copied) is type(built) and copied == built


@pytest.mark.parametrize("name", sorted(set(SAMPLE_PDUS) - {"unknown_type_99"}))
def test_version_is_a_keyword_defaulting_to_1(name):
    pdu = SAMPLE_PDUS[name]
    cls, fields = type(pdu), pdu[:-1]
    assert pdu.version == 1 and cls(*fields) == pdu
    other = cls(*fields, version=7)
    assert other.version == 7 and serialize(other)[0] == 7
    assert deserialize(serialize(other))[0] == other


def test_subtree_pdu_is_20_bytes_with_no_flags_byte():
    raw = serialize(SubTreePdu(V4, 1878001, 54, 7497))
    assert len(raw) == 20
    # body is exactly id, bitmap, asn; announce/withdraw lives in bitmap bit 0
    assert raw[8:12] == (1878001).to_bytes(4, "big")
    assert raw[12:16] == (54).to_bytes(4, "big")
    assert raw[16:20] == (7497).to_bytes(4, "big")


def test_deserialize_consumes_offsets():
    blob = b"".join(
        serialize(p) for p in (ResetQuery(), CacheResponse(9), EndOfData(9, 1))
    )
    at = 0
    got = []
    while at < len(blob):
        pdu, used = deserialize(blob, at)
        got.append(pdu)
        at += used
    assert got == [ResetQuery(), CacheResponse(9), EndOfData(9, 1)]


def test_truncation_reports_required_length():
    raw = serialize(SubTreePdu(V4, 1878001, 54, 7497))
    with pytest.raises(TruncatedPdu) as exc:
        deserialize(raw[:5])
    assert exc.value.required == 8
    with pytest.raises(TruncatedPdu) as exc:
        deserialize(raw[:12])
    assert exc.value.required == 20


def test_framing_rejections():
    with pytest.raises(FramingError):
        deserialize(bytes.fromhex("0102000000000004"))  # length below header
    with pytest.raises(FramingError):
        deserialize(bytes.fromhex("010200000001000a") + b"\0" * 65536)  # over cap
    with pytest.raises(FramingError):
        deserialize(bytes.fromhex("010200000000000a") + b"\0\0")  # reset must be 8
    # v4 prefix with prefixlen 40
    bad = bytearray(serialize(SAMPLE_PDUS["ipv4_prefix_announce"]))
    bad[9] = 40
    with pytest.raises(FramingError):
        deserialize(bytes(bad))
    # sub-tree id 0
    bad = bytearray(serialize(SubTreePdu(V4, 1, 2, 1)))
    bad[8:12] = b"\0\0\0\0"
    with pytest.raises(FramingError):
        deserialize(bytes(bad))
    # aggregated body not a whole number of (id, bitmap) pairs
    good = serialize(SubTreeAggPdu(V4, 1, ((1, 2),)))
    bad = bytearray(good + b"\0\0\0\0")
    bad[4:8] = (len(bad)).to_bytes(4, "big")
    with pytest.raises(FramingError):
        deserialize(bytes(bad))


@pytest.mark.parametrize(
    "pdu, at, byte, message",
    [
        (SAMPLE_PDUS["ipv4_prefix_announce"], 9, 33, "prefixlen 33 out of range for v4"),
        (SAMPLE_PDUS["ipv6_prefix_announce"], 9, 129, "prefixlen 129 out of range for v6"),
        (PrefixPdu(1, parse_prefix("10.0.0.0/24"), 24, 1), 15, 1, "host bits set below /24"),
        (PrefixPdu(1, parse_prefix("2001:db8::/32"), 32, 1), 16, 1, "host bits set below /32"),
        (SAMPLE_PDUS["ipv4_prefix_announce"], 10, 19, "max_length 19 out of range"),
        (SAMPLE_PDUS["ipv6_prefix_announce"], 10, 129, "max_length 129 out of range"),
        (SubTreePdu(V4, 1, 2, 1), 11, 0, "zero sub-tree id"),
        (SubTreePdu(V6, 1, 2, 1), 23, 0, "zero sub-tree id"),
    ],
    ids=["v4-prefixlen", "v6-prefixlen", "v4-host-bits", "v6-host-bits", "v4-max-length",
         "v6-max-length", "v4-zero-id", "v6-zero-id"],
)
def test_payload_field_errors_name_the_field(pdu, at, byte, message):
    good = serialize(pdu)
    bad = bytearray(good)
    bad[at] = byte
    with pytest.raises(FramingError, match=f"^{message}$"):
        deserialize(bytes(bad))
    # inside a run, the reader raises the same text
    with pytest.raises(FramingError, match=f"^{message}$"):
        PduReader().feed(good + bad + good)


def test_error_report_length_fields_must_agree():
    raw = bytearray(serialize(ErrorReport(3, b"\x01\x02", "x")))
    raw[8:12] = (3).to_bytes(4, "big")  # echoed length now inconsistent
    with pytest.raises(FramingError):
        deserialize(bytes(raw))
    # a type-10 header claiming fewer than 16 bytes can never be valid
    with pytest.raises(FramingError):
        deserialize(bytes.fromhex("010a00030000000c") + b"\0" * 4)


def _with(raw: bytes, at: int, value: bytes) -> bytes:
    out = bytearray(raw)
    out[at : at + len(value)] = value
    return bytes(out)


@pytest.mark.parametrize(
    "raw, message",
    [
        # the second pair's id zeroed
        (_with(serialize(SubTreeAggPdu(V4, 1, ((1, 2), (3, 4)))), 20, bytes(4)),
         "zero sub-tree id in aggregate"),
        (_with(serialize(SubTreeAggPdu(V6, 1, ((1, 2),))), 12, bytes(16)),
         "zero sub-tree id in aggregate"),
        # an echoed length of 100 in an 11-byte body
        (_with(serialize(ErrorReport(3, b"\x01\x02", "x")), 8, (100).to_bytes(4, "big")),
         "echoed PDU overruns error report"),
        (_with(serialize(ErrorReport(3, b"", "x")), 16, b"\xff"),
         "error text not utf-8: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
    ],
    ids=["v4-agg-zero-id", "v6-agg-zero-id", "echo-overrun", "text-not-utf8"],
)
def test_variable_length_errors_name_the_fault(raw, message):
    with pytest.raises(FramingError) as exc:
        deserialize(raw)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "pdu, message",
    [
        (PrefixPdu(1, parse_prefix("10.0.0.0/24"), 24, 1 << 32),
         "asn 4294967296 does not fit 32 bits"),
        (SubTreePdu(V4, 1, 1 << 32, 1), "bitmap 4294967296 does not fit 32 bits"),
        (SubTreePdu(V6, 1, 2, -1), "asn -1 does not fit 32 bits"),
        (ErrorReport(3, bytes(wire.MAX_PDU_LEN - wire.ERROR_REPORT_OVERHEAD), "x"),
         "error report of 65536 bytes exceeds cap"),
    ],
    ids=["prefix-asn", "subtree-bitmap", "subtree-asn", "error-report-cap"],
)
def test_serialize_field_errors_name_the_field(pdu, message):
    with pytest.raises(FramingError) as exc:
        serialize(pdu)
    assert str(exc.value) == message


def test_serialize_range_checks():
    with pytest.raises(FramingError):
        serialize(CacheResponse(1 << 16))
    with pytest.raises(FramingError):
        serialize(SubTreePdu(V4, 1 << 32, 2, 1))
    with pytest.raises(FramingError):
        serialize(SubTreePdu(V4, 0, 2, 1))
    with pytest.raises(FramingError):
        serialize(SubTreeAggPdu(V4, 1, ()))
    with pytest.raises(FramingError):
        serialize(PrefixPdu(1, parse_prefix("10.0.0.0/24"), 16, 1))
    with pytest.raises(TypeError):
        serialize("not a pdu")


@pytest.mark.parametrize(
    "pdu",
    [
        PrefixPdu(256, parse_prefix("10.0.0.0/24"), 24, 1),
        PrefixPdu(1, parse_prefix("10.0.0.0/24"), 24, 1, version=300),
        SubTreePdu(4, 5, 6, 7, version=-1),
        ResetQuery(256),
        EndOfData(1, 2, version=999),
    ],
    ids=["flags", "prefix-version", "subtree-version", "reset-version", "eod-version"],
)
def test_serialize_byte_field_out_of_range_is_a_framing_error(pdu):
    with pytest.raises(FramingError, match=f"^{type(pdu).__name__} field out of range: "):
        serialize(pdu)


def test_unknown_type_passes_through():
    raw = bytes.fromhex("017f00990000000b") + b"abc"
    pdu, used = deserialize(raw)
    assert used == 11
    assert pdu == UnknownPdu(1, 0x7F, raw)
    assert serialize(pdu) == raw


def test_reader_reassembles_byte_at_a_time():
    pdus = [
        ResetQuery(),
        SubTreePdu(V4, 1878001, 54, 7497),
        ErrorReport(2, b"", "boom"),
        EndOfData(1, 7),
    ]
    blob = b"".join(serialize(p) for p in pdus)
    reader = PduReader()
    got = []
    for i in range(len(blob)):
        got.extend(reader.feed(blob[i : i + 1]))
    assert got == pdus
    assert reader.pending == 0


def test_reader_keeps_partial_tail():
    reader = PduReader()
    raw = serialize(EndOfData(1, 7))
    assert reader.feed(raw[:10]) == []
    assert reader.pending == 10
    assert reader.feed(raw[10:]) == [EndOfData(1, 7)]


def _alternating_prefix_pdus(n):
    """n prefix PDUs alternating types 4 and 6, so every run is one PDU long."""
    rng = random.Random(n)
    out = []
    for i in range(n):
        fam, width = (V4, 32) if i % 2 == 0 else (V6, 128)
        plen = rng.randint(8, 24)
        p = Prefix(fam, rng.getrandbits(plen) << (width - plen), plen)
        out.append(PrefixPdu(1, p, plen, rng.getrandbits(32)))
    return out


class _CountingBuffer(bytearray):
    """A reader buffer that counts the bytes its slices copy out."""

    copied = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            self.copied += len(got)
        return got


def test_reader_copies_linear_in_a_stream_of_short_runs():
    # fed in one call, as `hroa decode` feeds a file: doubling a stream of
    # one-PDU runs may double what feed copies, not quadruple it
    copied = []
    for n in (2000, 4000):
        pdus = _alternating_prefix_pdus(n)
        reader = PduReader()
        reader._buf = buf = _CountingBuffer()
        assert reader.feed(b"".join(wire.serialize_each(pdus))) == pdus
        copied.append(buf.copied)
    assert copied[1] <= 2.2 * copied[0]


def test_reader_feeds_a_long_alternating_stream_in_one_call():
    pdus = _alternating_prefix_pdus(200_000)
    blob = b"".join(wire.serialize_each(pdus))
    reader = PduReader()
    assert reader.feed(blob) == pdus
    assert reader.pending == 0


def _arbitrary_pdus(rng, n):
    out = []
    for _ in range(n):
        kind = rng.randrange(8)
        if kind == 0:
            out.append(ResetQuery())
        elif kind == 1:
            out.append(CacheResponse(rng.getrandbits(16)))
        elif kind == 2:
            fam = rng.choice((V4, V6))
            width = 32 if fam == V4 else 128
            plen = rng.randint(0, width)
            p = Prefix(fam, rng.getrandbits(plen) << (width - plen), plen)
            out.append(
                PrefixPdu(rng.getrandbits(1), p, rng.randint(plen, width), rng.getrandbits(32))
            )
        elif kind == 3:
            out.append(EndOfData(rng.getrandbits(16), rng.getrandbits(32)))
        elif kind == 4:
            out.append(
                ErrorReport(rng.getrandbits(16), rng.randbytes(rng.randrange(20)), "e" * rng.randrange(8))
            )
        elif kind == 5:
            fam = rng.choice((V4, V6))
            out.append(SubTreePdu(fam, rng.getrandbits(20) + 1, rng.getrandbits(32), rng.getrandbits(32)))
        elif kind == 6:
            fam = rng.choice((V4, V6))
            ids = sorted(rng.sample(range(1, 1 << 16), rng.randint(1, 5)))
            out.append(
                SubTreeAggPdu(fam, rng.getrandbits(32), tuple((i, rng.getrandbits(32)) for i in ids))
            )
        else:
            body = rng.randbytes(rng.randrange(12))
            ptype = rng.choice((5, 8, 9, 11, 97))
            raw = bytes([1, ptype]) + rng.getrandbits(16).to_bytes(2, "big") + (8 + len(body)).to_bytes(4, "big") + body
            out.append(UnknownPdu(1, ptype, raw))
    return out


def test_random_round_trip_stream():
    rng = random.Random(17)
    for _ in range(100):
        pdus = _arbitrary_pdus(rng, rng.randint(1, 20))
        blob = b"".join(serialize(p) for p in pdus)
        # whole-buffer walk
        at = 0
        got = []
        while at < len(blob):
            pdu, used = deserialize(blob, at)
            got.append(pdu)
            at += used
        assert got == pdus
        # chunked walk must agree
        reader = PduReader()
        chunked = []
        at = 0
        while at < len(blob):
            step = rng.randint(1, 9)
            chunked.extend(reader.feed(blob[at : at + step]))
            at += step
        assert chunked == pdus
        assert reader.pending == 0


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_arbitrary_bytes_never_crash(data):
    # anything but a clean parse must be one of the two documented errors
    try:
        pdu, used = deserialize(data)
        assert 8 <= used <= len(data)
    except TruncatedPdu as exc:
        assert exc.required > len(data)
    except FramingError:
        pass


def test_payload_pdu_sizes():
    ab4 = AddressBlock(parse_prefix("10.0.0.0/16"), 20)
    ab6 = AddressBlock(parse_prefix("2001:db8::/32"), 40)
    assert len(serialize(PrefixPdu(1, ab4.prefix, 20, 1))) == 20
    assert len(serialize(PrefixPdu(1, ab6.prefix, 40, 1))) == 32
    assert len(serialize(SubTreePdu(V4, 1878001, 54, 1))) == 20
    assert len(serialize(SubTreePdu(V6, 1, 2, 1))) == 32
    raw = serialize(SubTreeAggPdu(V4, 7497, ((9, 2), (1878001, 54))))
    assert len(raw) == 12 + 8 * 2
    # a full aggregate fits the length cap; one pair more does not
    for fam, stride in ((V4, 8), (V6, 20)):
        cap = agg_capacity(fam)
        pairs = tuple((sid, 2) for sid in range(1, cap + 2))
        assert len(serialize(SubTreeAggPdu(fam, 1, pairs[:cap]))) == 12 + stride * cap
        with pytest.raises(FramingError):
            serialize(SubTreeAggPdu(fam, 1, pairs))
    assert (agg_capacity(V4), agg_capacity(V6)) == (8190, 3276)


def test_layout_lengths_match_serialized_pdus():
    assert wire.MAX_SUBTREE_HEIGHT == 5 and 1 << wire.MAX_SUBTREE_HEIGHT == wire.BITMAP_BITS
    for fam, prefix in ((V4, "10.0.0.0/16"), (V6, "2001:db8::/32")):
        lay = wire.LAYOUT[fam]
        p = parse_prefix(prefix)
        cap = agg_capacity(fam)
        cases = [
            (PrefixPdu(1, p, p.prefixlen, 1), lay.prefix_type, lay.prefix_len),
            (SubTreePdu(fam, 9, 2, 1), lay.subtree_type, lay.subtree_len),
            (SubTreeAggPdu(fam, 1, ((9, 2),)), lay.agg_type, lay.agg_len(1)),
            (
                SubTreeAggPdu(fam, 1, tuple((sid, 2) for sid in range(1, cap + 1))),
                lay.agg_type,
                lay.agg_len(cap),
            ),
        ]
        for pdu, ptype, length in cases:
            raw = serialize(pdu)
            assert (raw[1], len(raw)) == (ptype, length)
            assert int.from_bytes(raw[4:8], "big") == length
            assert deserialize(raw) == (pdu, length)
        assert lay.agg_len(cap) <= wire.MAX_PDU_LEN < lay.agg_len(cap + 1)
    assert wire.PAYLOAD_OVERHEAD == wire.LAYOUT[V4].subtree_len - wire.LAYOUT[V4].pair_bytes


@pytest.mark.parametrize("family", [V4, V6])
@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
def test_complete_subtree_at_every_level_serializes(step, family):
    profile = HangingLevels.multiples_of(step, family)
    assert profile.max_height <= wire.MAX_SUBTREE_HEIGHT
    width = profile.width
    for level in profile.levels:
        height = profile.height_at[level]
        root = Prefix(family, ((1 << level) - 1) << (width - level), level)
        (block,) = encode_batch(profile, expand(AddressBlock(root, level + height - 1)))
        assert block.bitmap == (1 << (1 << height)) - 2  # every node bit set
        for pdu in (
            SubTreePdu(family, block.id, block.bitmap, 1),
            SubTreeAggPdu(family, 1, ((block.id, block.bitmap),)),
        ):
            raw = serialize(pdu)
            assert deserialize(raw) == (pdu, len(raw))


# --- the reader's in-place parse against a deserialize walk --------------------

_U16 = st.integers(0, (1 << 16) - 1)
_U32 = st.integers(0, (1 << 32) - 1)


@st.composite
def _fixed_pdu(draw):
    """Any PDU of a fixed layout: types 2, 3, 4, 6, 7, 12 and 13."""
    kind = draw(st.sampled_from(("reset", "response", "eod", "prefix", "subtree")))
    if kind == "reset":
        return ResetQuery()
    if kind == "response":
        return CacheResponse(draw(_U16))
    if kind == "eod":
        return EndOfData(draw(_U16), draw(_U32), draw(_U32), draw(_U32), draw(_U32))
    fam = draw(st.sampled_from((V4, V6)))
    width = 32 if fam == V4 else 128
    if kind == "prefix":
        plen = draw(st.integers(0, width))
        bits = draw(st.integers(0, (1 << plen) - 1)) << (width - plen)
        return PrefixPdu(draw(st.integers(0, 255)), Prefix(fam, bits, plen),
                         draw(st.integers(plen, width)), draw(_U32))
    sid = draw(st.integers(1, (1 << width) - 1))
    return SubTreePdu(fam, sid, draw(_U32), draw(_U32))


def _mutate(raw: bytearray, pdu, how: str, value: int) -> None:
    """Break one serialized PDU in place the way ``how`` names."""
    if isinstance(pdu, PrefixPdu):
        addr = wire.LAYOUT[pdu.prefix.family].addr_bytes
        if how == "host_bits":
            raw[11 + addr] |= 1  # lowest address bit; a host bit unless the prefix is full
        elif how == "max_length":
            raw[10] = value % 256
        elif how == "prefix_length":
            raw[9] = value % 256
    if isinstance(pdu, SubTreePdu) and how == "zero_id":
        addr = wire.LAYOUT[pdu.family].addr_bytes
        raw[8 : 8 + addr] = bytes(addr)
    if how == "version":  # not checked: a PDU carries it through
        raw[0] = value % 256
    elif how == "field16":  # not checked on payload PDUs
        raw[2:4] = (value % (1 << 16)).to_bytes(2, "big")
    elif how == "length":  # short, wrong for the type, or over the cap
        length = value % 80 if value % 2 else wire.MAX_PDU_LEN + value
        raw[4:8] = length.to_bytes(4, "big")
    elif how == "type":
        raw[1] = (2, 3, 4, 6, 7, 12, 13)[value % 7]
    elif how == "byte":
        raw[value % len(raw)] = value // len(raw) % 256


def _walk(blob: bytes):
    """deserialize PDU by PDU: (pdus, FramingError message or None, bytes left)."""
    got, at = [], 0
    try:
        while at < len(blob):
            pdu, used = deserialize(blob, at)
            got.append(pdu)
            at += used
    except TruncatedPdu:
        pass
    except FramingError as exc:
        return got, str(exc), None
    return got, None, len(blob) - at


def _fed(blob: bytes, steps: list[int]):
    """The same through PduReader.feed in chunks of the given sizes, cycled.

    On a FramingError, the PDUs are those of the chunks before the one that raised.
    """
    reader, got, at, i = PduReader(), [], 0, 0
    try:
        while at < len(blob):
            step = steps[i % len(steps)]
            got.extend(reader.feed(blob[at : at + step]))
            at, i = at + step, i + 1
    except FramingError as exc:
        return got, str(exc), None
    return got, None, reader.pending


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_fixed_pdu(), min_size=1, max_size=8),
    st.lists(
        st.tuples(
            st.integers(0, 7),  # which PDU, modulo their count
            st.sampled_from(
                ("host_bits", "max_length", "prefix_length", "zero_id", "length", "type", "byte")
            ),
            st.integers(0, 1 << 16),
        ),
        min_size=1,
        max_size=2,
    ),
    st.lists(st.integers(1, 70), min_size=1, max_size=6),
)
def test_reader_matches_deserialize_walk(pdus, mutations, steps):
    raws = [bytearray(serialize(p)) for p in pdus]
    for index, how, value in mutations:
        index %= len(raws)
        _mutate(raws[index], pdus[index], how, value)
    blob = b"".join(raws)
    walked, walk_err, walk_left = _walk(blob)
    fed, fed_err, fed_left = _fed(blob, steps)
    assert fed_err == walk_err
    if walk_err is None:
        assert (fed, fed_left) == (walked, walk_left)
    else:
        # the chunks before the one that raised gave the walk's first PDUs
        assert fed == walked[: len(fed)]


# --- runs of one layout, which feed parses with one unpack per chunk ------------


@st.composite
def _run_stream(draw):
    """2-300 prefix or sub-tree PDUs of one family, maybe framed by control PDUs."""
    kind = draw(st.sampled_from(("prefix", "subtree")))
    fam = draw(st.sampled_from((V4, V6)))
    width = 32 if fam == V4 else 128
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    run = []
    for _ in range(draw(st.integers(2, 300))):
        if kind == "prefix":
            plen = rng.randint(0, width)
            p = Prefix(fam, rng.getrandbits(plen) << (width - plen), plen)
            run.append(PrefixPdu(rng.getrandbits(8), p, rng.randint(plen, width), rng.getrandbits(32)))
        else:
            sid = rng.randint(1, (1 << width) - 1)
            run.append(SubTreePdu(fam, sid, rng.getrandbits(32), rng.getrandbits(32)))
    before = [CacheResponse(rng.getrandbits(16))] if draw(st.booleans()) else []
    after = [EndOfData(rng.getrandbits(16), rng.getrandbits(32))] if draw(st.booleans()) else []
    return before, run, after


@settings(max_examples=150, deadline=None)
@given(
    _run_stream(),
    st.integers(0, 299),  # which run PDU, modulo the run's length
    st.sampled_from(("type", "length", "host_bits", "prefix_length", "max_length", "zero_id",
                     "version", "field16")),
    st.integers(0, 1 << 16),
    st.lists(st.sampled_from((1, 19, 20, 21, 4096)) | st.integers(1, 700), min_size=1, max_size=6),
)
def test_reader_parses_runs_as_the_deserialize_walk(stream, index, how, value, steps):
    before, run, after = stream
    index %= len(run)
    raws = [bytearray(serialize(p)) for p in before + run + after]
    _mutate(raws[len(before) + index], run[index], how, value)
    blob = b"".join(raws)
    walked, walk_err, _ = _walk(blob)
    # where each walked PDU starts, and where the walk stopped: the reader may
    # hold back only the bytes past the last of these that a chunk reached
    bounds = [0]
    for raw in raws[: len(walked)]:
        bounds.append(bounds[-1] + len(raw))
    reader, got, fed, i = PduReader(), [], 0, 0
    err = None
    while fed < len(blob):
        chunk = blob[fed : fed + steps[i % len(steps)]]
        fed, i = fed + len(chunk), i + 1
        try:
            got.extend(reader.feed(chunk))
        except FramingError as exc:
            assert fed > bounds[-1]  # the chunk that raised reached the bad PDU
            err = str(exc)  # the reader is spent
            break
        whole = max(b for b in bounds if b <= fed)
        assert got == walked[: bounds.index(whole)]
        assert reader.pending == fed - whole
    assert err == walk_err
    if err is None:
        assert got == walked


# -- aggregate serialization -----------------------------------------------------

_AGG_TYPE = {V4: 14, V6: 15}
_ID_BYTES = {V4: 4, V6: 16}
_EDGE_IDS = (1, (1 << 32) - 1, (1 << 128) - 1)
_EDGE_BITMAPS = (0, (1 << 32) - 1)


@st.composite
def _agg_pdus(draw):
    """v4 and v6 aggregates of 1-50 pairs at the field edges; now and then with bad pairs."""
    family = draw(st.sampled_from((V4, V6)))
    top = 1 << (8 * _ID_BYTES[family])
    ids = st.one_of(st.sampled_from([i for i in _EDGE_IDS if i < top]), st.integers(1, top - 1))
    bitmaps = st.one_of(st.sampled_from(_EDGE_BITMAPS), st.integers(0, (1 << 32) - 1))
    pairs = draw(st.lists(st.tuples(ids, bitmaps), min_size=1, max_size=50))
    if draw(st.integers(0, 3)) == 0:
        bad_ids = st.sampled_from(sorted({0, -1, top, *(i for i in _EDGE_IDS if i >= top)}))
        bad_bitmaps = st.sampled_from((-1, 1 << 32))
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(pairs) - 1))
            sid, bitmap = pairs[at]
            if draw(st.booleans()):
                sid = draw(bad_ids)
            else:
                bitmap = draw(bad_bitmaps)
            pairs[at] = (sid, bitmap)
    return SubTreeAggPdu(family, draw(st.integers(0, (1 << 32) - 1)), tuple(pairs))


def _agg_reference(pdu) -> bytes:
    """The aggregate's bytes built pair by pair, raising on the first pair that does not fit."""
    nbytes = _ID_BYTES[pdu.family]
    body = b""
    for sid, bitmap in pdu.blocks:
        if not 1 <= sid < 1 << (8 * nbytes):
            raise FramingError(f"sub-tree id {sid} out of range")
        if not 0 <= bitmap < 1 << 32:
            raise FramingError(f"bitmap {bitmap} does not fit 32 bits")
        body += sid.to_bytes(nbytes, "big") + struct.pack(">I", bitmap)
    head = struct.pack(">BBHII", 1, _AGG_TYPE[pdu.family], 0, 12 + len(body), pdu.asn)
    return head + body


@settings(max_examples=300)
@given(_agg_pdus())
def test_aggregate_serializes_as_its_pairs_one_by_one(pdu):
    try:
        want = _agg_reference(pdu)
    except FramingError as exc:
        with pytest.raises(FramingError) as info:
            serialize(pdu)
        assert str(info.value) == str(exc)  # names the first bad pair
    else:
        assert serialize(pdu) == want
        assert deserialize(want) == (pdu, len(want))
