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

Sub-tree PDUs carry announce/withdraw in bitmap bit 0; there is no flags
byte.  Unrecognized types pass through as ``UnknownPdu`` holding the raw
bytes so a stream survives foreign PDUs untouched.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .prefix import V4, V6, Prefix

PDU_RESET_QUERY = 2
PDU_CACHE_RESPONSE = 3
PDU_IPV4_PREFIX = 4
PDU_IPV6_PREFIX = 6
PDU_END_OF_DATA = 7
PDU_ERROR_REPORT = 10
PDU_IPV4_SUBTREE = 12
PDU_IPV6_SUBTREE = 13
PDU_IPV4_SUBTREE_AGG = 14
PDU_IPV6_SUBTREE_AGG = 15

DEFAULT_VERSION = 1
MAX_PDU_LEN = 65535
ANNOUNCE = 1  # flags byte of an announcing prefix PDU

_HDR = struct.Struct(">BBHI")


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


def _id_bytes(family: int) -> int:
    return 4 if family == V4 else 16


def agg_capacity(family: int) -> int:
    """Most (id, bitmap) pairs one aggregated PDU of the family can hold."""
    return (MAX_PDU_LEN - 12) // (_id_bytes(family) + 4)


def serialize(pdu: RtrPdu) -> bytes:
    """Wire bytes for one PDU."""
    if isinstance(pdu, ResetQuery):
        return _HDR.pack(pdu.version, PDU_RESET_QUERY, 0, 8)

    if isinstance(pdu, CacheResponse):
        return _HDR.pack(
            pdu.version, PDU_CACHE_RESPONSE, _check_u16(pdu.session_id, "session"), 8
        )

    if isinstance(pdu, PrefixPdu):
        fam = pdu.prefix.family
        ptype = PDU_IPV4_PREFIX if fam == V4 else PDU_IPV6_PREFIX
        alen = 4 if fam == V4 else 16
        total = 8 + 4 + alen + 4
        if not pdu.prefix.prefixlen <= pdu.max_length <= pdu.prefix.width:
            raise FramingError(f"max_length {pdu.max_length} out of range")
        return (
            _HDR.pack(pdu.version, ptype, 0, total)
            + struct.pack(">BBBB", pdu.flags, pdu.prefix.prefixlen, pdu.max_length, 0)
            + pdu.prefix.bits.to_bytes(alen, "big")
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
        ptype = PDU_IPV4_SUBTREE if pdu.family == V4 else PDU_IPV6_SUBTREE
        ilen = _id_bytes(pdu.family)
        if not 1 <= pdu.subtree_id < 1 << (8 * ilen):
            raise FramingError(f"sub-tree id {pdu.subtree_id} out of range")
        _check_u32(pdu.bitmap, "bitmap")
        return (
            _HDR.pack(pdu.version, ptype, 0, 8 + ilen + 8)
            + pdu.subtree_id.to_bytes(ilen, "big")
            + struct.pack(">II", pdu.bitmap, _check_u32(pdu.asn, "asn"))
        )

    if isinstance(pdu, SubTreeAggPdu):
        ptype = PDU_IPV4_SUBTREE_AGG if pdu.family == V4 else PDU_IPV6_SUBTREE_AGG
        ilen = _id_bytes(pdu.family)
        if not pdu.blocks:
            raise FramingError("aggregated PDU with no blocks")
        total = 12 + (ilen + 4) * len(pdu.blocks)
        if total > MAX_PDU_LEN:
            raise FramingError(f"aggregated PDU of {total} bytes exceeds cap")
        parts = [
            _HDR.pack(pdu.version, ptype, 0, total),
            struct.pack(">I", _check_u32(pdu.asn, "asn")),
        ]
        for sid, bitmap in pdu.blocks:
            if not 1 <= sid < 1 << (8 * ilen):
                raise FramingError(f"sub-tree id {sid} out of range")
            parts.append(sid.to_bytes(ilen, "big"))
            parts.append(struct.pack(">I", _check_u32(bitmap, "bitmap")))
        return b"".join(parts)

    if isinstance(pdu, UnknownPdu):
        return pdu.raw

    raise TypeError(f"not a PDU: {pdu!r}")


def _parse_prefix_pdu(version: int, family: int, body: bytes) -> PrefixPdu:
    alen = 4 if family == V4 else 16
    flags, plen, maxlen, zero = struct.unpack_from(">BBBB", body, 0)
    bits = int.from_bytes(body[4 : 4 + alen], "big")
    (asn,) = struct.unpack_from(">I", body, 4 + alen)
    try:
        prefix = Prefix(family, bits, plen)
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
    if len(view) < 8:
        raise TruncatedPdu(8)
    version, ptype, field16, length = _HDR.unpack_from(view, 0)
    if length < 8:
        raise FramingError(f"PDU length {length} below header size")
    if length > MAX_PDU_LEN:
        raise FramingError(f"PDU length {length} exceeds cap")
    if len(view) < length:
        raise TruncatedPdu(length)
    body = bytes(view[8:length])

    def need(n: int) -> None:
        if length != n:
            raise FramingError(f"type {ptype} PDU must be {n} bytes, got {length}")

    if ptype == PDU_RESET_QUERY:
        need(8)
        return ResetQuery(version=version), length

    if ptype == PDU_CACHE_RESPONSE:
        need(8)
        return CacheResponse(field16, version=version), length

    if ptype == PDU_IPV4_PREFIX:
        need(20)
        return _parse_prefix_pdu(version, V4, body), length

    if ptype == PDU_IPV6_PREFIX:
        need(32)
        return _parse_prefix_pdu(version, V6, body), length

    if ptype == PDU_END_OF_DATA:
        need(24)
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

    if ptype in (PDU_IPV4_SUBTREE, PDU_IPV6_SUBTREE):
        family = V4 if ptype == PDU_IPV4_SUBTREE else V6
        ilen = _id_bytes(family)
        need(8 + ilen + 8)
        sid = int.from_bytes(body[:ilen], "big")
        bitmap, asn = struct.unpack_from(">II", body, ilen)
        if sid < 1:
            raise FramingError("zero sub-tree id")
        return SubTreePdu(family, sid, bitmap, asn, version=version), length

    if ptype in (PDU_IPV4_SUBTREE_AGG, PDU_IPV6_SUBTREE_AGG):
        family = V4 if ptype == PDU_IPV4_SUBTREE_AGG else V6
        ilen = _id_bytes(family)
        stride = ilen + 4
        if length < 12 + stride or (length - 12) % stride:
            raise FramingError(f"bad aggregated PDU length {length}")
        (asn,) = struct.unpack_from(">I", body, 0)
        blocks = []
        for at in range(4, len(body), stride):
            sid = int.from_bytes(body[at : at + ilen], "big")
            (bitmap,) = struct.unpack_from(">I", body, at + ilen)
            if sid < 1:
                raise FramingError("zero sub-tree id in aggregate")
            blocks.append((sid, bitmap))
        return SubTreeAggPdu(family, asn, tuple(blocks), version=version), length

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

