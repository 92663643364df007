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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .prefix import V4, V6, Prefix

PDU_RESET_QUERY = 2
PDU_CACHE_RESPONSE = 3
PDU_END_OF_DATA = 7
PDU_ERROR_REPORT = 10

DEFAULT_VERSION = 1
MAX_PDU_LEN = 65535
ANNOUNCE = 1  # flags byte of an announcing prefix PDU

_HDR = struct.Struct(">BBHI")
HEADER_BYTES = _HDR.size
ASN_BYTES = 4
BITMAP_BITS = 32
BITMAP_BYTES = BITMAP_BITS // 8
MAX_SUBTREE_HEIGHT = BITMAP_BITS.bit_length() - 1  # height h needs 2^h bits: 5
# what a sub-tree PDU or an aggregate spends besides its (id, bitmap) pairs
PAYLOAD_OVERHEAD = HEADER_BYTES + ASN_BYTES


class Layout:
    """The wire facts of one address family."""

    __slots__ = ("family", "addr_bytes", "prefix_type", "subtree_type", "agg_type",
                 "prefix_len", "pair_bytes", "subtree_len")

    def __init__(self, family: int, addr_bytes: int, prefix_type: int, subtree_type: int,
                 agg_type: int):
        self.family = family
        self.addr_bytes = addr_bytes  # prefix address in types 4/6, sub-tree id in 12-15
        self.prefix_type, self.subtree_type, self.agg_type = prefix_type, subtree_type, agg_type
        self.prefix_len = HEADER_BYTES + 4 + addr_bytes + ASN_BYTES  # 4: flags, len, maxlen, 0
        self.pair_bytes = addr_bytes + BITMAP_BYTES  # one (id, bitmap) pair
        self.subtree_len = self.agg_len(1)

    def agg_len(self, pairs: int) -> int:
        return PAYLOAD_OVERHEAD + self.pair_bytes * pairs


LAYOUT = {
    V4: Layout(V4, addr_bytes=4, prefix_type=4, subtree_type=12, agg_type=14),
    V6: Layout(V6, addr_bytes=16, prefix_type=6, subtree_type=13, agg_type=15),
}
_PREFIX_TYPES = {lay.prefix_type: lay for lay in LAYOUT.values()}
_SUBTREE_TYPES = {lay.subtree_type: lay for lay in LAYOUT.values()}
_AGG_TYPES = {lay.agg_type: lay for lay in LAYOUT.values()}
# every type whose PDUs have one length; error reports and aggregates vary
_FIXED_LEN = {
    PDU_RESET_QUERY: HEADER_BYTES, PDU_CACHE_RESPONSE: HEADER_BYTES, PDU_END_OF_DATA: 24,
    **{lay.prefix_type: lay.prefix_len for lay in LAYOUT.values()},
    **{lay.subtree_type: lay.subtree_len for lay in LAYOUT.values()},
}


class FramingError(ValueError):
    """The bytes cannot be a PDU (bad length, range, or structure)."""


class TruncatedPdu(Exception):
    """More bytes are needed; ``required`` is the full PDU length."""

    def __init__(self, required: int):
        super().__init__(f"need {required} bytes")
        self.required = required


@dataclass(frozen=True, slots=True)
class ResetQuery:
    version: int = DEFAULT_VERSION


@dataclass(frozen=True, slots=True)
class CacheResponse:
    session_id: int
    version: int = DEFAULT_VERSION


@dataclass(frozen=True, slots=True)
class PrefixPdu:
    """Types 4 and 6: one VRP with an announce/withdraw flags byte."""

    flags: int
    prefix: Prefix
    max_length: int
    asn: int
    version: int = DEFAULT_VERSION

    @property
    def announce(self) -> bool:
        return bool(self.flags & 1)


@dataclass(frozen=True, slots=True)
class EndOfData:
    session_id: int
    serial: int
    refresh: int = 3600
    retry: int = 600
    expire: int = 7200
    version: int = DEFAULT_VERSION


@dataclass(frozen=True, slots=True)
class ErrorReport:
    error_code: int
    echoed: bytes = b""
    text: str = ""
    version: int = DEFAULT_VERSION


@dataclass(frozen=True, slots=True)
class SubTreePdu:
    """Types 12 and 13: one sub-tree block for one AS."""

    family: int
    subtree_id: int
    bitmap: int
    asn: int
    version: int = DEFAULT_VERSION


@dataclass(frozen=True, slots=True)
class SubTreeAggPdu:
    """Types 14 and 15: every sub-tree block of one AS, one family."""

    family: int
    asn: int
    blocks: tuple[tuple[int, int], ...]  # (id, bitmap), ascending id
    version: int = DEFAULT_VERSION


@dataclass(frozen=True, slots=True)
class UnknownPdu:
    """Any type this codec does not understand, kept byte-for-byte."""

    version: int
    pdu_type: int
    raw: bytes


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
    """Wire bytes for one PDU."""
    if isinstance(pdu, ResetQuery):
        return _HDR.pack(pdu.version, PDU_RESET_QUERY, 0, HEADER_BYTES)

    if isinstance(pdu, CacheResponse):
        return _HDR.pack(
            pdu.version, PDU_CACHE_RESPONSE, _check_u16(pdu.session_id, "session"), HEADER_BYTES
        )

    if isinstance(pdu, PrefixPdu):
        lay = LAYOUT[pdu.prefix.family]
        if not pdu.prefix.prefixlen <= pdu.max_length <= pdu.prefix.width:
            raise FramingError(f"max_length {pdu.max_length} out of range")
        return (
            _HDR.pack(pdu.version, lay.prefix_type, 0, lay.prefix_len)
            + struct.pack(">BBBB", pdu.flags, pdu.prefix.prefixlen, pdu.max_length, 0)
            + pdu.prefix.bits.to_bytes(lay.addr_bytes, "big")
            + struct.pack(">I", _check_u32(pdu.asn, "asn"))
        )

    if isinstance(pdu, EndOfData):
        return _HDR.pack(
            pdu.version, PDU_END_OF_DATA, _check_u16(pdu.session_id, "session"), 24
        ) + struct.pack(
            ">IIII",
            _check_u32(pdu.serial, "serial"),
            _check_u32(pdu.refresh, "refresh"),
            _check_u32(pdu.retry, "retry"),
            _check_u32(pdu.expire, "expire"),
        )

    if isinstance(pdu, ErrorReport):
        text = pdu.text.encode("utf-8")
        total = 8 + 4 + len(pdu.echoed) + 4 + len(text)
        if total > MAX_PDU_LEN:
            raise FramingError(f"error report of {total} bytes exceeds cap")
        return (
            _HDR.pack(pdu.version, PDU_ERROR_REPORT, _check_u16(pdu.error_code, "code"), total)
            + struct.pack(">I", len(pdu.echoed))
            + pdu.echoed
            + struct.pack(">I", len(text))
            + text
        )

    if isinstance(pdu, SubTreePdu):
        lay = LAYOUT[pdu.family]
        if not 1 <= pdu.subtree_id < 1 << (8 * lay.addr_bytes):
            raise FramingError(f"sub-tree id {pdu.subtree_id} out of range")
        _check_u32(pdu.bitmap, "bitmap")
        return (
            _HDR.pack(pdu.version, lay.subtree_type, 0, lay.subtree_len)
            + pdu.subtree_id.to_bytes(lay.addr_bytes, "big")
            + struct.pack(">II", pdu.bitmap, _check_u32(pdu.asn, "asn"))
        )

    if isinstance(pdu, SubTreeAggPdu):
        lay = LAYOUT[pdu.family]
        if not pdu.blocks:
            raise FramingError("aggregated PDU with no blocks")
        total = lay.agg_len(len(pdu.blocks))
        if total > MAX_PDU_LEN:
            raise FramingError(f"aggregated PDU of {total} bytes exceeds cap")
        parts = [
            _HDR.pack(pdu.version, lay.agg_type, 0, total),
            struct.pack(">I", _check_u32(pdu.asn, "asn")),
        ]
        for sid, bitmap in pdu.blocks:
            if not 1 <= sid < 1 << (8 * lay.addr_bytes):
                raise FramingError(f"sub-tree id {sid} out of range")
            parts.append(sid.to_bytes(lay.addr_bytes, "big"))
            parts.append(struct.pack(">I", _check_u32(bitmap, "bitmap")))
        return b"".join(parts)

    if isinstance(pdu, UnknownPdu):
        return pdu.raw

    raise TypeError(f"not a PDU: {pdu!r}")


def _parse_prefix_pdu(version: int, lay: Layout, body: bytes) -> PrefixPdu:
    alen = lay.addr_bytes
    flags, plen, maxlen, zero = struct.unpack_from(">BBBB", body, 0)
    bits = int.from_bytes(body[4 : 4 + alen], "big")
    (asn,) = struct.unpack_from(">I", body, 4 + alen)
    try:
        prefix = Prefix(lay.family, bits, plen)
        if not plen <= maxlen <= prefix.width:
            raise ValueError(f"max_length {maxlen} out of range")
    except ValueError as exc:
        raise FramingError(str(exc)) from None
    return PrefixPdu(flags, prefix, maxlen, asn, version=version)


def deserialize(buf: bytes | bytearray | memoryview, offset: int = 0) -> tuple[RtrPdu, int]:
    """Parse one PDU at ``offset``; returns (pdu, bytes consumed).

    Raises TruncatedPdu when the buffer holds only part of a PDU and
    FramingError when the bytes cannot be valid.
    """
    view = memoryview(buf)[offset:]
    if len(view) < HEADER_BYTES:
        raise TruncatedPdu(HEADER_BYTES)
    version, ptype, field16, length = _HDR.unpack_from(view, 0)
    if length < HEADER_BYTES:
        raise FramingError(f"PDU length {length} below header size")
    if length > MAX_PDU_LEN:
        raise FramingError(f"PDU length {length} exceeds cap")
    if len(view) < length:
        raise TruncatedPdu(length)
    want = _FIXED_LEN.get(ptype)
    if want is not None and length != want:
        raise FramingError(f"type {ptype} PDU must be {want} bytes, got {length}")
    body = bytes(view[HEADER_BYTES:length])

    lay = _PREFIX_TYPES.get(ptype)
    if lay is not None:
        return _parse_prefix_pdu(version, lay, body), length

    lay = _SUBTREE_TYPES.get(ptype)
    if lay is not None:
        ilen = lay.addr_bytes
        sid = int.from_bytes(body[:ilen], "big")
        bitmap, asn = struct.unpack_from(">II", body, ilen)
        if sid < 1:
            raise FramingError("zero sub-tree id")
        return SubTreePdu(lay.family, sid, bitmap, asn, version=version), length

    lay = _AGG_TYPES.get(ptype)
    if lay is not None:
        ilen, stride = lay.addr_bytes, lay.pair_bytes
        if length < lay.agg_len(1) or (length - PAYLOAD_OVERHEAD) % stride:
            raise FramingError(f"bad aggregated PDU length {length}")
        (asn,) = struct.unpack_from(">I", body, 0)
        blocks = []
        for at in range(ASN_BYTES, len(body), stride):
            sid = int.from_bytes(body[at : at + ilen], "big")
            (bitmap,) = struct.unpack_from(">I", body, at + ilen)
            if sid < 1:
                raise FramingError("zero sub-tree id in aggregate")
            blocks.append((sid, bitmap))
        return SubTreeAggPdu(lay.family, asn, tuple(blocks), version=version), length

    if ptype == PDU_RESET_QUERY:
        return ResetQuery(version=version), length

    if ptype == PDU_CACHE_RESPONSE:
        return CacheResponse(field16, version=version), length

    if ptype == PDU_END_OF_DATA:
        serial, refresh, retry, expire = struct.unpack(">IIII", body)
        return EndOfData(field16, serial, refresh, retry, expire, version=version), length

    if ptype == PDU_ERROR_REPORT:
        if length < 16:
            raise FramingError("error report too short")
        (elen,) = struct.unpack_from(">I", body, 0)
        if 4 + elen + 4 > len(body):
            raise FramingError("echoed PDU overruns error report")
        echoed = body[4 : 4 + elen]
        (tlen,) = struct.unpack_from(">I", body, 4 + elen)
        if 4 + elen + 4 + tlen != len(body):
            raise FramingError("error report length fields disagree")
        try:
            text = body[8 + elen :].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FramingError(f"error text not utf-8: {exc}") from None
        return ErrorReport(field16, echoed, text, version=version), length

    return UnknownPdu(version, ptype, bytes(view[:length])), length


class PduReader:
    """Incremental reassembler: feed arbitrary chunks, get whole PDUs out."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> list[RtrPdu]:
        self._buf.extend(data)
        out: list[RtrPdu] = []
        at = 0
        while True:
            try:
                pdu, used = deserialize(self._buf, at)
            except TruncatedPdu:
                break
            out.append(pdu)
            at += used
        if at:
            del self._buf[:at]
            self.bytes_consumed += at
        return out

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet parseable."""
        return len(self._buf)

