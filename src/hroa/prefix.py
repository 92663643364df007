"""IP prefix primitives shared by every encoding scheme.

A prefix is a node in the binary trie over addresses: ``bits`` holds the
full 32- or 128-bit address integer with every bit past ``prefixlen``
forced to zero, so trie arithmetic is plain integer shifting.  An address
block is a prefix plus a maxLength bound and stands for the complete
sub-tree of prefixes between ``prefixlen`` and ``max_length``.

Both are named tuples, so hashing, equality and ordering run in C: a
prefix is the tuple ``(family, bits, prefixlen)`` and a block the tuple
``(prefix, max_length)``, and each compares equal to, hashes like and
sorts like that plain tuple; a CSV row is the plain tuple ``(asn, block)``.
``Prefix(...)`` and ``AddressBlock(...)`` check their fields; the
namedtuple helpers ``_make`` and ``_replace`` do not, and neither do
``_new_prefix`` and ``_new_block``, the builders for code that has already
proven its output valid: ``expand``, the CSV reader (``workload._load``
reads each canonical row itself, its address by ``socket.inet_pton``, and
checks the length, max_length and host bits as ints, the host bits against
``_HOST_MASK``; ``workload._parse_row`` reads every other row through
``parse_prefix`` and checks the AS number and the max_length range as ints),
bitmap decoding, the roots of minimal compression that no input object
supplies, the wire parser's prefix PDUs (``wire._prefix_builder`` checks the
prefix length and host bits as ints first, the host bits against
``_HOST_MASK`` too), the blocks ``sync.decode_payload_pdu`` makes of them,
and the prefixes and blocks ``sync.fetch`` makes straight from a prefix
run's fields after the same checks, inline.
Other tuple-backed values follow the same rule: ``encode_batch`` and
``sync.decode_payload_pdu`` build their sub-tree blocks with
``bmcodec._new_subtree_block`` (each bitmap has a node bit, and
``decode_block`` checks each id), and ``sync.payload_pdus`` builds its
prefix and sub-tree PDUs with ``wire._new_prefix_pdu`` and
``wire._new_subtree_pdu`` (``wire.serialize`` checks every field it packs).
"""

from __future__ import annotations

import ipaddress
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


def _cap_error(height: int) -> ExpansionCapError:
    return ExpansionCapError(f"block height {height} exceeds expansion cap {DEFAULT_EXPANSION_CAP}")


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


# The canonical spelling of every length and max_length.  A table hit rules
# out the signs, ``_`` separators, spaces, leading zeros and non-ASCII digits
# int() would take.
_DECIMAL = {str(i): i for i in range(256)}
# _HOST_MASK[family][n]: the host bits of a /n address, the ones a prefix leaves zero
_HOST_MASK = {fam: tuple((1 << (width - n)) - 1 for n in range(width + 1))
              for fam, width in WIDTH.items()}


def parse_prefix(text: str, strict: bool = True) -> Prefix:
    """Parse ``addr/len``.  strict=False masks stray host bits instead of failing."""
    if "/" not in text:
        raise PrefixFormatError(f"missing /len in {text!r}")
    text = text.strip()
    try:
        net = ipaddress.ip_network(text, strict=strict)
    except ValueError as exc:
        raise PrefixFormatError(str(exc)) from None
    if "%" in text:  # ipaddress takes a v6 scope id, which no VRP names
        raise PrefixFormatError(f"scope id not allowed in {text!r}")
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
        raise _cap_error(height)
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
