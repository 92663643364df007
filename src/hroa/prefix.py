"""IP prefix primitives shared by every encoding scheme.

A prefix is a node in the binary trie over addresses: ``bits`` holds the
full 32- or 128-bit address integer with every bit past ``prefixlen``
forced to zero, so trie arithmetic is plain integer shifting.  An address
block is a prefix plus a maxLength bound and stands for the complete
sub-tree of prefixes between ``prefixlen`` and ``max_length``.

Both are named tuples, so hashing, equality and ordering run in C: a
prefix is the tuple ``(family, bits, prefixlen)`` and a block the tuple
``(prefix, max_length)``, and each compares equal to, hashes like and
sorts like that plain tuple.  So is ``Vrp``, the tuple ``(asn, block)``.
``Prefix(...)``, ``AddressBlock(...)`` and ``Vrp(...)`` check their
fields; the namedtuple helpers ``_make`` and ``_replace`` do not, and
neither do ``_new_prefix``, ``_new_block`` and ``_new_vrp``, the builders
for code that has already proven its output valid: ``expand``, the v4 and
v6 fast paths of ``parse_prefix``, the CSV row parser
(``workload.parse_vrp_row`` checks the AS number and the max_length range
as ints first), bitmap decoding, minimal compression, the wire parser's
prefix PDUs (``wire._prefix`` checks the prefix length and host bits as
ints first) and the blocks ``sync.decode_payload_pdu`` makes of them.
Other tuple-backed values follow the same rule: ``encode_batch`` builds
its sub-tree blocks with ``bmcodec._new_subtree_block`` (each id has its
leading 1 bit and each bitmap a node bit), and ``sync.payload_pdus``
builds its prefix and sub-tree PDUs with ``wire._new_prefix_pdu`` and
``wire._new_subtree_pdu`` (``wire.serialize`` checks every field it packs).
"""

from __future__ import annotations

import ipaddress
import re
from collections import namedtuple
from functools import partial
from itertools import repeat

V4 = 4
V6 = 6
WIDTH = {V4: 32, V6: 128}

# expand() refuses blocks taller than this: a height-h block materializes
# 2^(h+1) - 1 prefixes, so one height-24 block would be 2^25 - 1 objects.
DEFAULT_EXPANSION_CAP = 20


class PrefixFormatError(ValueError):
    """Input text is not a valid prefix, block, or VRP row."""


class FamilyMismatchError(ValueError):
    """An operation mixed IPv4 and IPv6 operands."""


class ExpansionCapError(ValueError):
    """A block is taller than the expansion cap."""


class Prefix(namedtuple("Prefix", "family bits prefixlen")):
    """One trie node.  Orders by (family, bits, prefixlen)."""

    __slots__ = ()

    def __new__(cls, family: int, bits: int, prefixlen: int) -> "Prefix":
        if family not in WIDTH:
            raise ValueError(f"bad family {family!r}")
        width = WIDTH[family]
        if not 0 <= prefixlen <= width:
            raise ValueError(f"prefixlen {prefixlen} out of range for v{family}")
        if not 0 <= bits < 1 << width:
            raise ValueError("address bits out of range")
        if bits & ((1 << (width - prefixlen)) - 1):
            raise ValueError(f"host bits set below /{prefixlen}")
        return tuple.__new__(cls, (family, bits, prefixlen))

    @property
    def width(self) -> int:
        return WIDTH[self.family]

    def __str__(self) -> str:
        if self.family == V4:
            addr = ipaddress.IPv4Address(self.bits)
        else:
            addr = ipaddress.IPv6Address(self.bits)
        return f"{addr}/{self.prefixlen}"


class AddressBlock(namedtuple("AddressBlock", "prefix max_length")):
    """A prefix with a maxLength bound (prefixlen <= max_length <= width)."""

    __slots__ = ()

    def __new__(cls, prefix: Prefix, max_length: int) -> "AddressBlock":
        if not prefix.prefixlen <= max_length <= prefix.width:
            raise ValueError(f"max_length {max_length} out of range for {prefix}")
        return tuple.__new__(cls, (prefix, max_length))

    @property
    def height(self) -> int:
        return self.max_length - self.prefix.prefixlen

    def __str__(self) -> str:
        return f"{self.prefix}-{self.max_length}"


# Unchecked builders, each taking one (field, ...) tuple, for valid fields only.
_new_prefix = partial(tuple.__new__, Prefix)
_new_block = partial(tuple.__new__, AddressBlock)


def block_order(block: AddressBlock) -> tuple[int, int, int, int]:
    """A block's sort order as flat ints: the same order as ``<``, cheaper than nested tuples."""
    prefix = block.prefix
    return prefix.family, prefix.bits, prefix.prefixlen, block.max_length


class Vrp(namedtuple("Vrp", "asn block")):
    """A validated payload row: origin AS number plus one address block."""

    __slots__ = ()

    def __new__(cls, asn: int, block: AddressBlock) -> "Vrp":
        if not 0 <= asn < 1 << 32:
            raise ValueError(f"asn {asn} out of range")
        return tuple.__new__(cls, (asn, block))


_new_vrp = partial(tuple.__new__, Vrp)

# The canonical spelling of every number a prefix text holds: octets,
# lengths and max_lengths.  A table hit rules out the signs, ``_``
# separators, spaces, leading zeros and non-ASCII digits int() would take.
_DECIMAL = {str(i): i for i in range(256)}
# Colon-separated groups of 1-4 hex digits, or nothing (either side of "::").
_HEXTETS = re.compile(r"(?:[0-9A-Fa-f]{1,4}(?::[0-9A-Fa-f]{1,4})*)?")


def _parse_v4(text: str, strict: bool) -> Prefix | None:
    """The plain ``a.b.c.d/n`` form, parsed without ipaddress; None for any other text.

    Only text that spells each number canonically gets through.  A
    host-bits error under ``strict`` is left to ipaddress too, which words it.
    """
    addr, _, plen = text.partition("/")
    try:
        a, b, c, d = map(_DECIMAL.__getitem__, addr.split("."))
    except (KeyError, ValueError):
        return None
    n = _DECIMAL.get(plen, 33)
    if n > 32:
        return None
    bits = a << 24 | b << 16 | c << 8 | d
    host = (1 << (32 - n)) - 1
    if bits & host:
        if strict:
            return None
        bits &= ~host
    return _new_prefix((V4, bits, n))


def _parse_v6(text: str, strict: bool) -> Prefix | None:
    """The plain ``h:h::h/n`` forms, parsed without ipaddress; None for any other text.

    Each group is 1-4 hex digits, one ``::`` at most stands for one or more
    zero groups, and ``n`` is spelled canonically.  Scope ids, embedded v4
    tails and every malformed address go to ipaddress, which words the
    error; so does a host-bits error under ``strict``.
    """
    addr, _, plen = text.partition("/")
    n = _DECIMAL.get(plen, 129)
    head, skip, tail = addr.partition("::")
    hi = head.split(":") if head else ()
    lo = tail.split(":") if tail else ()
    missing = 8 - len(hi) - len(lo)  # the groups "::" stands for
    if (n > 128 or (missing < 1 if skip else missing)
            or not _HEXTETS.fullmatch(head) or not _HEXTETS.fullmatch(tail)):
        return None
    bits = 0
    for group in hi:
        bits = bits << 16 | int(group, 16)
    bits <<= 16 * missing
    for group in lo:
        bits = bits << 16 | int(group, 16)
    host = (1 << (128 - n)) - 1
    if bits & host:
        if strict:
            return None
        bits &= ~host
    return _new_prefix((V6, bits, n))


def parse_prefix(text: str, strict: bool = True) -> Prefix:
    """Parse ``addr/len``.  strict=False masks stray host bits instead of failing."""
    if "/" not in text:
        raise PrefixFormatError(f"missing /len in {text!r}")
    text = text.strip()
    fast = _parse_v6(text, strict) if ":" in text else _parse_v4(text, strict)
    if fast is not None:
        return fast
    try:
        net = ipaddress.ip_network(text, strict=strict)
    except ValueError as exc:
        raise PrefixFormatError(str(exc)) from None
    family = V4 if net.version == 4 else V6
    return Prefix(family, int(net.network_address), net.prefixlen)


def expand(block: AddressBlock) -> set[Prefix]:
    """Every prefix the block authorizes: the full sub-tree down to max_length.

    Yields exactly 2^(height+1) - 1 prefixes; refuses heights above
    ``DEFAULT_EXPANSION_CAP``.
    """
    root = block.prefix
    plen = root.prefixlen
    height = block.max_length - plen
    if height > DEFAULT_EXPANSION_CAP:
        raise ExpansionCapError(
            f"block height {height} exceeds expansion cap {DEFAULT_EXPANSION_CAP}")
    out = {root}
    if height:
        family, bits, _ = root
        width = WIDTH[family]
        for n in range(plen + 1, block.max_length + 1):
            # the 2^(n - plen) nodes of length n: the root's bits plus k steps of one /n
            count, step = 1 << (n - plen), 1 << (width - n)
            out.update(map(_new_prefix, zip(repeat(family), range(bits, bits + count * step, step),
                                            repeat(n))))
    return out
