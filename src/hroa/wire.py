"""Cache-to-router wire format, big-endian throughout.

Every PDU opens with the same 8-byte header:

    byte 0    protocol version: 1 (``DEFAULT_VERSION``) is written and read
    byte 1    PDU type
    bytes 2-3 type-specific 16-bit field (session id, error code, or zero)
    bytes 4-7 total PDU length in bytes, header included

Fixed layouts handled here (lengths in bytes):

    type  2  reset query        8   header only
    type  3  cache response     8   session id in the 16-bit field
    type  4  v4 prefix         20   flags, len, maxlen, zero, addr4, asn
    type  6  v6 prefix         32   flags, len, maxlen, zero, addr16, asn
    type  7  end of data       24   serial, refresh, retry, expire timers
    type 10  error report       *   code, echoed PDU, diagnostic text
    type 12  v4 sub-tree       20   id4, bitmap4, asn
    type 13  v6 sub-tree       32   id16, bitmap4, asn
    type 14  v4 sub-tree agg   12+8k   asn, then k (id4, bitmap4) pairs
    type 15  v6 sub-tree agg   12+20k  asn, then k (id16, bitmap4) pairs

Types 4/6 and 12-15 take their codes and lengths from ``LAYOUT``.  Sub-tree
PDUs carry announce/withdraw in bitmap bit 0, with no flags byte; a height-h
sub-tree needs 2^h bits, so the 32-bit bitmap caps sub-trees at
``MAX_SUBTREE_HEIGHT`` levels.  Unrecognized types pass through as
``UnknownPdu`` holding the raw bytes so a stream survives foreign PDUs.

Every PDU is a named tuple, so it equals, hashes and sorts like the plain
tuple of its fields.  Constructors check nothing: ``serialize`` checks each
field it packs and raises FramingError for one that does not fit.  No PDU
holds a version: every header is written at ``DEFAULT_VERSION``, and
``deserialize`` raises UnsupportedVersion, after its framing and field
checks, for any PDU but an Error Report of another version (RFC 8210,
section 7).

Every fixed layout (types 2, 3, 4, 6, 7, 12, 13) has one precompiled
``struct.Struct`` covering header and body: ``Layout.prefix_struct`` and
``Layout.subtree_struct`` per family, ``_HDR`` and ``_END_OF_DATA`` for the
rest.  A v4 address or id is one 32-bit int field; a v6 one is 16 bytes, as
struct has no 128-bit code.  ``serialize_each`` (behind ``serialize``) packs a
fixed PDU with one call.  A payload type (4, 6, 12, 13) is read by a second
Struct of the same size built from the same body format,
``Layout.prefix_read`` or ``Layout.subtree_read``: it reads the body and
skips the header, whose version, type and length are checked before it runs.
``deserialize`` checks one PDU's header and unpacks it in place from the
caller's buffer.  ``PduReader.feed`` finds a run of payload PDUs with their
type's compiled pattern, which checks the version byte, type byte and length
field of each whole PDU, at most ``_RUN_PDUS`` PDUs a match.  One
``iter_unpack`` over a copy of just the matched bytes reads them, so what it
copies stays linear in the stream however short its runs are.  A PDU the
pattern does not match, or a partial tail, goes to ``deserialize``.
Both hand each unpacked tuple to the one builder of its type, which checks
the fields as ints and builds the PDU and its ``Prefix`` with unchecked tuple
builders.  ``PduReader(prefix_runs=True)``, which ``sync.fetch`` reads with,
hands out a prefix run's copy unread, as one ``PrefixRun``.

Types 1 (serial query) and 8 (cache reset) have codes here for the cache
server, and parse as ``UnknownPdu``.
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple
from functools import partial
from typing import Iterable

from .prefix import V4, V6, WIDTH, _HOST_MASK, _new_prefix

PDU_SERIAL_QUERY = 1
PDU_RESET_QUERY = 2
PDU_CACHE_RESPONSE = 3
PDU_END_OF_DATA = 7
PDU_CACHE_RESET = 8
PDU_ERROR_REPORT = 10

DEFAULT_VERSION = 1
MAX_PDU_LEN = 65535
ANNOUNCE = 1  # flags byte of an announcing prefix PDU

_HDR_FMT = ">BBHI"  # version, type, 16-bit field, length
_HDR = struct.Struct(_HDR_FMT)
_END_OF_DATA = struct.Struct(_HDR_FMT + "IIII")  # serial, refresh, retry, expire
_U32 = struct.Struct(">I")
HEADER_BYTES = _HDR.size
# the answer to a Serial Query while the cache keeps no history: reset instead
_CACHE_RESET = _HDR.pack(DEFAULT_VERSION, PDU_CACHE_RESET, 0, HEADER_BYTES)
ASN_BYTES = 4
BITMAP_BITS = 32
MAX_SUBTREE_HEIGHT = BITMAP_BITS.bit_length() - 1  # height h needs 2^h bits: 5
# what a sub-tree PDU or an aggregate spends besides its (id, bitmap) pairs
PAYLOAD_OVERHEAD = HEADER_BYTES + ASN_BYTES
# what an error report spends besides its echoed PDU and text: two length fields
ERROR_REPORT_OVERHEAD = HEADER_BYTES + 8


# struct format of an address or sub-tree id: an int for v4; struct has no
# 128-bit code, so v6 packs 16 bytes (the int's to_bytes, in serialize_each)
_ADDR_FMT = {4: "I", 16: "16s"}


class Layout:
    """The wire facts of one address family."""

    __slots__ = ("family", "addr_bytes", "prefix_type", "subtree_type", "agg_type",
                 "prefix_len", "pair_bytes", "subtree_len",
                 "prefix_struct", "subtree_struct", "prefix_read", "subtree_read", "pair_struct")

    def __init__(self, family: int, addr_bytes: int, prefix_type: int, subtree_type: int,
                 agg_type: int):
        self.family = family
        self.addr_bytes = addr_bytes  # prefix address in types 4/6, sub-tree id in 12-15
        self.prefix_type, self.subtree_type, self.agg_type = prefix_type, subtree_type, agg_type
        addr = _ADDR_FMT[addr_bytes]
        prefix_body = "BBBx" + addr + "I"  # flags, len, maxlen, zero, address, asn
        subtree_body = addr + "II"  # id, bitmap, asn
        self.prefix_struct = struct.Struct(_HDR_FMT + prefix_body)
        self.subtree_struct = struct.Struct(_HDR_FMT + subtree_body)
        # the parser's: the same bytes, the header skipped; its version, type and
        # length are checked before, its 16-bit field never
        self.prefix_read = struct.Struct(">8x" + prefix_body)
        self.subtree_read = struct.Struct(">8x" + subtree_body)
        self.pair_struct = struct.Struct(">" + addr + "I")  # one (id, bitmap) pair
        self.prefix_len = self.prefix_struct.size
        self.subtree_len = self.subtree_struct.size
        self.pair_bytes = self.pair_struct.size

    def agg_len(self, pairs: int) -> int:
        return PAYLOAD_OVERHEAD + self.pair_bytes * pairs


LAYOUT = {
    V4: Layout(V4, addr_bytes=4, prefix_type=4, subtree_type=12, agg_type=14),
    V6: Layout(V6, addr_bytes=16, prefix_type=6, subtree_type=13, agg_type=15),
}
_AGG_TYPES = {lay.agg_type: lay for lay in LAYOUT.values()}


class FramingError(ValueError):
    """The bytes cannot be a PDU (bad length, range, or structure).

    A ``PduReader`` that raises it is spent: a caller that must act on the
    PDUs before the bad one parses with ``deserialize``.
    """


class UnsupportedVersion(FramingError):
    """A well-framed PDU of another protocol version; ``length`` is its length."""

    def __init__(self, message: str, length: int):
        super().__init__(message)
        self.length = length


class TruncatedPdu(Exception):
    """More bytes are needed; ``required`` is the full PDU length."""

    def __init__(self, required: int):
        super().__init__(f"need {required} bytes")
        self.required = required


class ResetQuery(namedtuple("ResetQuery", "")):
    __slots__ = ()


class CacheResponse(namedtuple("CacheResponse", "session_id")):
    __slots__ = ()


class PrefixPdu(namedtuple("PrefixPdu", "flags prefix max_length asn")):
    """Types 4 and 6: one VRP with an announce/withdraw flags byte (bit 0 set: announce)."""

    __slots__ = ()


class EndOfData(namedtuple("EndOfData", "session_id serial refresh retry expire",
                           defaults=(3600, 600, 7200))):
    __slots__ = ()


class ErrorReport(namedtuple("ErrorReport", "error_code echoed text", defaults=(b"", ""))):
    __slots__ = ()


class SubTreePdu(namedtuple("SubTreePdu", "family subtree_id bitmap asn")):
    """Types 12 and 13: one sub-tree block for one AS."""

    __slots__ = ()


class SubTreeAggPdu(namedtuple("SubTreeAggPdu", "family asn blocks")):
    """Types 14 and 15: every sub-tree block of one AS, one family.

    ``blocks`` holds (id, bitmap) pairs, ascending id.
    """

    __slots__ = ()


class UnknownPdu(namedtuple("UnknownPdu", "pdu_type raw")):
    """Any type this codec does not understand, kept byte-for-byte."""

    __slots__ = ()


RtrPdu = (
    ResetQuery
    | CacheResponse
    | PrefixPdu
    | EndOfData
    | ErrorReport
    | SubTreePdu
    | SubTreeAggPdu
    | UnknownPdu
)


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value < 1 << 32:
        raise FramingError(f"{what} {value} does not fit 32 bits")
    return value


def _check_u16(value: int, what: str) -> int:
    if not 0 <= value < 1 << 16:
        raise FramingError(f"{what} {value} does not fit 16 bits")
    return value


def agg_capacity(family: int) -> int:
    """Most (id, bitmap) pairs one aggregated PDU of the family can hold."""
    return (MAX_PDU_LEN - PAYLOAD_OVERHEAD) // LAYOUT[family].pair_bytes


def serialize(pdu: RtrPdu) -> bytes:
    """Wire bytes for one PDU; a fixed layout packs with one Struct call."""
    return serialize_each((pdu,))[0]


def serialize_each(pdus: Iterable[RtrPdu]) -> list[bytes]:
    """Each PDU's wire bytes, in order, for a caller that joins them with others."""
    out: list[bytes] = []
    append = out.append
    try:
        for pdu in pdus:
            if isinstance(pdu, PrefixPdu):
                flags, (family, bits, plen), max_length, asn = pdu
                lay = LAYOUT[family]
                if not plen <= max_length <= WIDTH[family]:
                    raise FramingError(f"max_length {max_length} out of range")
                if not 0 <= asn < 1 << 32:
                    _check_u32(asn, "asn")
                append(lay.prefix_struct.pack(
                    DEFAULT_VERSION, lay.prefix_type, 0, lay.prefix_len,
                    flags, plen, max_length,
                    bits if family == V4 else bits.to_bytes(lay.addr_bytes, "big"), asn,
                ))

            elif isinstance(pdu, SubTreePdu):
                family, sid, bitmap, asn = pdu
                lay = LAYOUT[family]
                if not 1 <= sid < 1 << (8 * lay.addr_bytes):
                    raise FramingError(f"sub-tree id {sid} out of range")
                if not (0 <= bitmap < 1 << 32 and 0 <= asn < 1 << 32):
                    _check_u32(bitmap, "bitmap")
                    _check_u32(asn, "asn")
                append(lay.subtree_struct.pack(
                    DEFAULT_VERSION, lay.subtree_type, 0, lay.subtree_len,
                    sid if family == V4 else sid.to_bytes(lay.addr_bytes, "big"), bitmap, asn,
                ))

            elif isinstance(pdu, SubTreeAggPdu):
                family, asn, blocks = pdu
                lay = LAYOUT[family]
                if not blocks:
                    raise FramingError("aggregated PDU with no blocks")
                total = lay.agg_len(len(blocks))
                if total > MAX_PDU_LEN:
                    raise FramingError(f"aggregated PDU of {total} bytes exceeds cap")
                head = _HDR.pack(DEFAULT_VERSION, lay.agg_type, 0, total)
                asn_field = _U32.pack(_check_u32(asn, "asn"))
                top = 1 << (8 * lay.addr_bytes)
                for sid, bitmap in blocks:  # the first bad pair is named
                    if not 1 <= sid < top:
                        raise FramingError(f"sub-tree id {sid} out of range")
                    _check_u32(bitmap, "bitmap")
                ids, bitmaps = zip(*blocks)
                if lay.addr_bytes != 4:
                    ids = [sid.to_bytes(lay.addr_bytes, "big") for sid in ids]
                append(b"".join((head, asn_field, *map(lay.pair_struct.pack, ids, bitmaps))))

            elif isinstance(pdu, ResetQuery):
                append(_HDR.pack(DEFAULT_VERSION, PDU_RESET_QUERY, 0, HEADER_BYTES))

            elif isinstance(pdu, CacheResponse):
                append(_HDR.pack(
                    DEFAULT_VERSION, PDU_CACHE_RESPONSE, _check_u16(pdu.session_id, "session"),
                    HEADER_BYTES,
                ))

            elif isinstance(pdu, EndOfData):
                append(_END_OF_DATA.pack(
                    DEFAULT_VERSION, PDU_END_OF_DATA, _check_u16(pdu.session_id, "session"),
                    _END_OF_DATA.size,
                    _check_u32(pdu.serial, "serial"),
                    _check_u32(pdu.refresh, "refresh"),
                    _check_u32(pdu.retry, "retry"),
                    _check_u32(pdu.expire, "expire"),
                ))

            elif isinstance(pdu, ErrorReport):
                text = pdu.text.encode("utf-8")
                total = ERROR_REPORT_OVERHEAD + len(pdu.echoed) + len(text)
                if total > MAX_PDU_LEN:
                    raise FramingError(f"error report of {total} bytes exceeds cap")
                append(
                    _HDR.pack(DEFAULT_VERSION, PDU_ERROR_REPORT,
                              _check_u16(pdu.error_code, "code"), total)
                    + _U32.pack(len(pdu.echoed))
                    + pdu.echoed
                    + _U32.pack(len(text))
                    + text
                )

            elif isinstance(pdu, UnknownPdu):
                append(pdu.raw)

            else:
                raise TypeError(f"not a PDU: {pdu!r}")
    except struct.error as exc:  # a byte field out of range; wider ones are checked above
        raise FramingError(f"{type(pdu).__name__} field out of range: {exc}") from None
    return out


# -- parsing -------------------------------------------------------------------
#
# Each fixed type maps to the Struct it is read with and a builder that takes
# the tuple the Struct unpacks.  A payload type is read by its Layout's read
# struct, the body alone; its builder checks the fields with plain ints, then
# builds the PDU (and its Prefix) with the unchecked tuple builders below.

_new_prefix_pdu = partial(tuple.__new__, PrefixPdu)
_new_subtree_pdu = partial(tuple.__new__, SubTreePdu)


def _prefix_builder(lay: Layout):
    """The builder of the family's prefix PDUs from ``lay.prefix_read`` fields."""
    family, width, v6 = lay.family, WIDTH[lay.family], lay.addr_bytes != 4
    host = _HOST_MASK[family]

    def build(fields: tuple) -> PrefixPdu:
        flags, plen, maxlen, bits, asn = fields
        if v6:
            bits = int.from_bytes(bits, "big")
        # host[plen] is read only once plen <= width holds
        if plen <= maxlen <= width and not bits & host[plen]:
            return _new_prefix_pdu((flags, _new_prefix((family, bits, plen)), maxlen, asn))
        # Prefix's checks and texts, in its order; an unpacked address cannot overflow its width
        if plen > width:
            raise FramingError(f"prefixlen {plen} out of range for v{family}")
        if bits & host[plen]:
            raise FramingError(f"host bits set below /{plen}")
        raise FramingError(f"max_length {maxlen} out of range")

    return build


def _subtree_builder(lay: Layout):
    """The builder of the family's sub-tree PDUs from ``lay.subtree_read`` fields."""
    family, v6 = lay.family, lay.addr_bytes != 4

    def build(fields: tuple) -> SubTreePdu:
        sid, bitmap, asn = fields
        if v6:
            sid = int.from_bytes(sid, "big")
        if sid < 1:
            raise FramingError("zero sub-tree id")
        return _new_subtree_pdu((family, sid, bitmap, asn))

    return build


def _run_match(ptype: int, size: int):
    """The match of a run of whole PDUs of this type and length, version 1, any 16-bit field."""
    head = re.escape(bytes((DEFAULT_VERSION, ptype))), re.escape(size.to_bytes(4, "big"))
    return re.compile(b"(?:%s..%s.{%d})+" % (*head, size - HEADER_BYTES), re.DOTALL).match


# the payload types a response carries in long runs, which feed reads a run at a
# time: the match of a run, the read struct and the builder
_RUNS = {
    ptype: (_run_match(ptype, read.size), read, build)
    for lay in LAYOUT.values()
    for ptype, read, build in (
        (lay.prefix_type, lay.prefix_read, _prefix_builder(lay)),
        (lay.subtree_type, lay.subtree_read, _subtree_builder(lay)),
    )
}
_PREFIX_LAYOUT = {lay.prefix_type: lay for lay in LAYOUT.values()}
PrefixRun = namedtuple("PrefixRun", "layout raw")  # a prefix run's Layout and bytes, unchecked
_FIXED = {
    PDU_RESET_QUERY: (_HDR, lambda f: ResetQuery()),
    PDU_CACHE_RESPONSE: (_HDR, lambda f: CacheResponse(f[2])),
    PDU_END_OF_DATA: (_END_OF_DATA, lambda f: EndOfData(f[2], *f[4:])),
    **{ptype: (read, build) for ptype, (_, read, build) in _RUNS.items()},
}
# the most PDUs one match spans, which bounds the state re keeps for its repeats
_RUN_PDUS = 64


def _parse_agg(lay: Layout, buf, at: int, length: int) -> SubTreeAggPdu:
    if length < lay.agg_len(1) or (length - PAYLOAD_OVERHEAD) % lay.pair_bytes:
        raise FramingError(f"bad aggregated PDU length {length}")
    (asn,) = _U32.unpack_from(buf, at + HEADER_BYTES)
    pairs = lay.pair_struct.iter_unpack(buf[at + PAYLOAD_OVERHEAD : at + length])
    if lay.addr_bytes == 4:
        blocks = tuple(pairs)
    else:
        blocks = tuple((int.from_bytes(sid, "big"), bitmap) for sid, bitmap in pairs)
    if any(sid < 1 for sid, _ in blocks):
        raise FramingError("zero sub-tree id in aggregate")
    return SubTreeAggPdu(lay.family, asn, blocks)


def _parse_error_report(code: int, buf, at: int, length: int) -> ErrorReport:
    if length < ERROR_REPORT_OVERHEAD:
        raise FramingError("error report too short")
    body = bytes(buf[at + HEADER_BYTES : at + length])
    (elen,) = _U32.unpack_from(body, 0)
    if 4 + elen + 4 > len(body):
        raise FramingError("echoed PDU overruns error report")
    echoed = body[4 : 4 + elen]
    (tlen,) = _U32.unpack_from(body, 4 + elen)
    if 4 + elen + 4 + tlen != len(body):
        raise FramingError("error report length fields disagree")
    try:
        text = body[8 + elen :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FramingError(f"error text not utf-8: {exc}") from None
    return ErrorReport(code, echoed, text)


def deserialize(buf: bytes | bytearray | memoryview, offset: int = 0) -> tuple[RtrPdu, int]:
    """Parse one PDU at ``offset``; returns (pdu, bytes consumed).

    Raises TruncatedPdu when the buffer holds only part of a PDU,
    FramingError when the bytes cannot be valid, and after those checks
    UnsupportedVersion when a PDU but an Error Report is not of version 1.
    Every header check lives here.  A fixed layout unpacks straight from
    ``buf`` with its Struct; only variable-length PDUs copy bytes out.
    """
    avail = len(buf) - offset
    if avail < HEADER_BYTES:
        raise TruncatedPdu(HEADER_BYTES)
    version, ptype, field16, length = _HDR.unpack_from(buf, offset)
    if length < HEADER_BYTES:
        raise FramingError(f"PDU length {length} below header size")
    if length > MAX_PDU_LEN:
        raise FramingError(f"PDU length {length} exceeds cap")
    if avail < length:
        raise TruncatedPdu(length)
    fixed = _FIXED.get(ptype)
    if fixed is not None:
        layout, build = fixed
        if length != layout.size:
            raise FramingError(f"type {ptype} PDU must be {layout.size} bytes, got {length}")
        pdu = build(layout.unpack_from(buf, offset))
    elif ptype in _AGG_TYPES:
        pdu = _parse_agg(_AGG_TYPES[ptype], buf, offset, length)
    elif ptype == PDU_ERROR_REPORT:
        return _parse_error_report(field16, buf, offset, length), length
    else:
        pdu = UnknownPdu(ptype, bytes(buf[offset : offset + length]))
    if version != DEFAULT_VERSION:  # RFC 8210 section 7
        raise UnsupportedVersion(f"{type(pdu).__name__} of protocol version {version}; "
                                 f"only version {DEFAULT_VERSION} is supported", length)
    return pdu, length


class PduReader:
    """Incremental reassembler: feed arbitrary chunks, get whole PDUs out."""

    def __init__(self, prefix_runs: bool = False) -> None:
        self._buf = bytearray()
        self._whole = _PREFIX_LAYOUT if prefix_runs else {}  # run types handed out whole

    def feed(self, data: bytes) -> list[RtrPdu | PrefixRun]:
        """Buffer a chunk; return every PDU it completed.

        A run of version-1 payload PDUs of one type and length is found by its
        type's pattern, at most ``_RUN_PDUS`` PDUs a match, and unpacked with
        its read struct and mapped through its type's builder, or with
        ``prefix_runs`` a prefix run is one ``PrefixRun``, its fields unchecked;
        every other PDU goes through ``deserialize``.  A malformed PDU, or one
        of another version, raises FramingError, and the reader is spent.
        """
        buf = self._buf
        buf.extend(data)
        end = len(buf)
        out: list[RtrPdu | PrefixRun] = []
        at = 0
        try:
            while at < end:
                run = _RUNS.get(buf[at + 1]) if end - at >= HEADER_BYTES else None
                if run is not None:
                    match, read, build = run
                    m = match(buf, at, at + _RUN_PDUS * read.size)
                    if m:  # one copy of just the run: no export of buf outlives it
                        raw, lay = buf[at : m.end()], self._whole.get(buf[at + 1])
                        out.extend(map(build, read.iter_unpack(raw)) if lay is None
                                   else (PrefixRun(lay, raw),))
                        at = m.end()
                        continue
                # a PDU of another type or length, or a partial tail
                pdu, used = deserialize(buf, at)
                out.append(pdu)
                at += used
        except TruncatedPdu:
            pass
        del buf[:at]
        return out

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet parseable."""
        return len(self._buf)

