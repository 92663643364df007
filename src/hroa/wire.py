"""Cache-to-router wire format, big-endian throughout.

Every PDU opens with the same 8-byte header:

    byte 0    protocol version (default 1)
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
field it packs and raises FramingError for one that does not fit.

Every fixed layout (types 2, 3, 4, 6, 7, 12, 13) has one precompiled
``struct.Struct`` covering header and body: ``Layout.prefix_struct`` and
``Layout.subtree_struct`` per family, ``_HDR`` and ``_END_OF_DATA`` for the
rest.  A v4 address or id is one 32-bit int field; a v6 one is 16 bytes, as
struct has no 128-bit code.  ``serialize_each`` (behind ``serialize``) packs a
fixed PDU with one call.  A payload type (4, 6, 12, 13) is read by a second
Struct of the same size built from the same body format,
``Layout.prefix_read`` or ``Layout.subtree_read``: it reads the version and
the body and skips the rest of the header, whose type and length are checked
before it runs.  ``deserialize`` checks one PDU's header and unpacks it in
place from the caller's buffer.  ``PduReader.feed`` takes a run of payload
PDUs of one type a window of at most ``_RUN_PDUS`` PDUs at a time: stride
slices of the window's type and length bytes count the leading PDUs that
match, and one ``iter_unpack`` over a copy of just their bytes reads them, so
what it copies stays linear in the stream however short its runs are.  The
first PDU that does not match, or a partial tail, goes to ``deserialize``.
Both hand each unpacked tuple to the one builder of its type, which checks
the fields as ints and builds the PDU and its ``Prefix`` with unchecked tuple
builders.

Types 1 (serial query) and 8 (cache reset) have codes here for the cache
server, and parse as ``UnknownPdu``.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import partial
from typing import Iterable

from .prefix import V4, V6, WIDTH, _new_prefix

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
# a header as the payload parser reads it: the version; the type and length
# are checked before, the 16-bit field not at all
_READ_HDR_FMT = ">B7x"
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
        # the parser's: the same bytes, read as the version and the body
        self.prefix_read = struct.Struct(_READ_HDR_FMT + prefix_body)
        self.subtree_read = struct.Struct(_READ_HDR_FMT + subtree_body)
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


class TruncatedPdu(Exception):
    """More bytes are needed; ``required`` is the full PDU length."""

    def __init__(self, required: int):
        super().__init__(f"need {required} bytes")
        self.required = required


class ResetQuery(namedtuple("ResetQuery", "version", defaults=(DEFAULT_VERSION,))):
    __slots__ = ()


class CacheResponse(namedtuple("CacheResponse", "session_id version",
                               defaults=(DEFAULT_VERSION,))):
    __slots__ = ()


class PrefixPdu(namedtuple("PrefixPdu", "flags prefix max_length asn version",
                           defaults=(DEFAULT_VERSION,))):
    """Types 4 and 6: one VRP with an announce/withdraw flags byte (bit 0 set: announce)."""

    __slots__ = ()


class EndOfData(namedtuple("EndOfData", "session_id serial refresh retry expire version",
                           defaults=(3600, 600, 7200, DEFAULT_VERSION))):
    __slots__ = ()


class ErrorReport(namedtuple("ErrorReport", "error_code echoed text version",
                             defaults=(b"", "", DEFAULT_VERSION))):
    __slots__ = ()


class SubTreePdu(namedtuple("SubTreePdu", "family subtree_id bitmap asn version",
                            defaults=(DEFAULT_VERSION,))):
    """Types 12 and 13: one sub-tree block for one AS."""

    __slots__ = ()


class SubTreeAggPdu(namedtuple("SubTreeAggPdu", "family asn blocks version",
                               defaults=(DEFAULT_VERSION,))):
    """Types 14 and 15: every sub-tree block of one AS, one family.

    ``blocks`` holds (id, bitmap) pairs, ascending id.
    """

    __slots__ = ()


class UnknownPdu(namedtuple("UnknownPdu", "version pdu_type raw")):
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
                flags, (family, bits, plen), max_length, asn, version = pdu
                lay = LAYOUT[family]
                if not plen <= max_length <= WIDTH[family]:
                    raise FramingError(f"max_length {max_length} out of range")
                if not 0 <= asn < 1 << 32:
                    _check_u32(asn, "asn")
                append(lay.prefix_struct.pack(
                    version, lay.prefix_type, 0, lay.prefix_len,
                    flags, plen, max_length,
                    bits if family == V4 else bits.to_bytes(lay.addr_bytes, "big"), asn,
                ))

            elif isinstance(pdu, SubTreePdu):
                family, sid, bitmap, asn, version = pdu
                lay = LAYOUT[family]
                if not 1 <= sid < 1 << (8 * lay.addr_bytes):
                    raise FramingError(f"sub-tree id {sid} out of range")
                if not (0 <= bitmap < 1 << 32 and 0 <= asn < 1 << 32):
                    _check_u32(bitmap, "bitmap")
                    _check_u32(asn, "asn")
                append(lay.subtree_struct.pack(
                    version, lay.subtree_type, 0, lay.subtree_len,
                    sid if family == V4 else sid.to_bytes(lay.addr_bytes, "big"), bitmap, asn,
                ))

            elif isinstance(pdu, SubTreeAggPdu):
                family, asn, blocks, version = pdu
                lay = LAYOUT[family]
                if not blocks:
                    raise FramingError("aggregated PDU with no blocks")
                total = lay.agg_len(len(blocks))
                if total > MAX_PDU_LEN:
                    raise FramingError(f"aggregated PDU of {total} bytes exceeds cap")
                head = _HDR.pack(version, lay.agg_type, 0, total)
                asn_field = _U32.pack(_check_u32(asn, "asn"))
                ids, bitmaps = zip(*blocks)
                top = 1 << (8 * lay.addr_bytes)
                # one range check per aggregate; the walk only words the first error
                if not (1 <= min(ids) and max(ids) < top
                        and 0 <= min(bitmaps) and max(bitmaps) < 1 << 32):
                    for sid, bitmap in blocks:
                        if not 1 <= sid < top:
                            raise FramingError(f"sub-tree id {sid} out of range")
                        _check_u32(bitmap, "bitmap")
                if lay.addr_bytes != 4:
                    ids = [sid.to_bytes(lay.addr_bytes, "big") for sid in ids]
                append(b"".join((head, asn_field, *map(lay.pair_struct.pack, ids, bitmaps))))

            elif isinstance(pdu, ResetQuery):
                append(_HDR.pack(pdu.version, PDU_RESET_QUERY, 0, HEADER_BYTES))

            elif isinstance(pdu, CacheResponse):
                append(_HDR.pack(
                    pdu.version, PDU_CACHE_RESPONSE, _check_u16(pdu.session_id, "session"),
                    HEADER_BYTES,
                ))

            elif isinstance(pdu, EndOfData):
                append(_END_OF_DATA.pack(
                    pdu.version, PDU_END_OF_DATA, _check_u16(pdu.session_id, "session"),
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
                    _HDR.pack(pdu.version, PDU_ERROR_REPORT, _check_u16(pdu.error_code, "code"), total)
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
# struct, (version, *body); its builder checks the fields with plain ints, then
# builds the PDU (and its Prefix) with the unchecked tuple builders below.

_new_prefix_pdu = partial(tuple.__new__, PrefixPdu)
_new_subtree_pdu = partial(tuple.__new__, SubTreePdu)


def _prefix_builder(lay: Layout):
    """The builder of the family's prefix PDUs from ``lay.prefix_read`` fields."""
    family, width, v6 = lay.family, WIDTH[lay.family], lay.addr_bytes != 4
    host = [(1 << (width - plen)) - 1 for plen in range(width + 1)]  # host bits below /plen

    def build(fields: tuple) -> PrefixPdu:
        version, flags, plen, maxlen, bits, asn = fields
        if v6:
            bits = int.from_bytes(bits, "big")
        # host[plen] is read only once plen <= width holds
        if plen <= maxlen <= width and not bits & host[plen]:
            return _new_prefix_pdu((flags, _new_prefix((family, bits, plen)), maxlen, asn, version))
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
        version, sid, bitmap, asn = fields
        if v6:
            sid = int.from_bytes(sid, "big")
        if sid < 1:
            raise FramingError("zero sub-tree id")
        return _new_subtree_pdu((family, sid, bitmap, asn, version))

    return build


# the payload types a response carries in long runs, which feed parses a window
# at a time: read struct, builder, and the type and length bytes it checks by
# stride (every payload size fits the length field's low byte)
_RUNS = {
    ptype: (read, build, bytes((ptype,)), bytes((read.size,)))
    for lay in LAYOUT.values()
    for ptype, read, build in (
        (lay.prefix_type, lay.prefix_read, _prefix_builder(lay)),
        (lay.subtree_type, lay.subtree_read, _subtree_builder(lay)),
    )
}
_FIXED = {
    PDU_RESET_QUERY: (_HDR, lambda f: ResetQuery(f[0])),
    PDU_CACHE_RESPONSE: (_HDR, lambda f: CacheResponse(f[2], f[0])),
    PDU_END_OF_DATA: (_END_OF_DATA, lambda f: EndOfData(f[2], *f[4:], f[0])),
    **{ptype: (read, build) for ptype, (read, build, _, _) in _RUNS.items()},
}
# the most PDUs of one window of a run, which bounds what a run of one or two PDUs copies
_RUN_PDUS = 64


def _parse_agg(lay: Layout, version: int, buf, at: int, length: int) -> SubTreeAggPdu:
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
    return SubTreeAggPdu(lay.family, asn, blocks, version=version)


def _parse_error_report(version: int, code: int, buf, at: int, length: int) -> ErrorReport:
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
    return ErrorReport(code, echoed, text, version=version)


def deserialize(buf: bytes | bytearray | memoryview, offset: int = 0) -> tuple[RtrPdu, int]:
    """Parse one PDU at ``offset``; returns (pdu, bytes consumed).

    Raises TruncatedPdu when the buffer holds only part of a PDU and
    FramingError when the bytes cannot be valid.  Every header check lives
    here.  A fixed layout unpacks straight from ``buf`` with its Struct; only
    variable-length PDUs copy bytes out.
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
        return build(layout.unpack_from(buf, offset)), length
    lay = _AGG_TYPES.get(ptype)
    if lay is not None:
        return _parse_agg(lay, version, buf, offset, length), length
    if ptype == PDU_ERROR_REPORT:
        return _parse_error_report(version, field16, buf, offset, length), length
    return UnknownPdu(version, ptype, bytes(buf[offset : offset + length])), length


class PduReader:
    """Incremental reassembler: feed arbitrary chunks, get whole PDUs out."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[RtrPdu]:
        """Buffer a chunk; return every PDU it completed.

        A run of payload PDUs of one type is checked a window at a time by
        stride slices of its type and length bytes, and the matching ones are
        unpacked with their read struct and mapped through their type's
        builder; every other PDU goes through ``deserialize``.  A malformed
        PDU raises FramingError, and the reader is spent.
        """
        buf = self._buf
        buf.extend(data)
        end = len(buf)
        out: list[RtrPdu] = []
        at = 0
        try:
            while at < end:
                run = _RUNS.get(buf[at + 1]) if end - at >= HEADER_BYTES else None
                if run is not None:
                    # a window of at most _RUN_PDUS whole PDUs: stride slices of
                    # their type and length bytes count the leading PDUs of this
                    # type and size, and one unpack reads them from a copy of
                    # just their bytes, so no export of buf outlives the call
                    read, build, ptype, size_byte = run
                    size = read.size
                    stop = min(end - (end - at) % size, at + _RUN_PDUS * size)
                    good = (stop - at) // size - max(
                        len(buf[at + 1 : stop : size].lstrip(ptype)),
                        len(buf[at + 4 : stop : size].lstrip(b"\0")),
                        len(buf[at + 5 : stop : size].lstrip(b"\0")),
                        len(buf[at + 6 : stop : size].lstrip(b"\0")),
                        len(buf[at + 7 : stop : size].lstrip(size_byte)),
                    )
                    if good:
                        out.extend(map(build, read.iter_unpack(buf[at : at + good * size])))
                        at += good * size
                        if at == stop:  # the window ran full: the next one, or what follows
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

