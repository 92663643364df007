"""IP prefix primitives shared by every encoding scheme.

A prefix is a node in the binary trie over addresses: ``bits`` holds the
full 32- or 128-bit address integer with every bit past ``prefixlen``
forced to zero, so trie arithmetic is plain integer shifting.  An address
block is a prefix plus a maxLength bound and stands for the complete
sub-tree of prefixes between ``prefixlen`` and ``max_length``.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True, order=True)
class Prefix:
    """One trie node.  Orders by (family, bits, prefixlen)."""

    family: int
    bits: int
    prefixlen: int

    def __post_init__(self) -> None:
        if self.family not in WIDTH:
            raise ValueError(f"bad family {self.family!r}")
        width = WIDTH[self.family]
        if not 0 <= self.prefixlen <= width:
            raise ValueError(f"prefixlen {self.prefixlen} out of range for v{self.family}")
        if not 0 <= self.bits < 1 << width:
            raise ValueError("address bits out of range")
        host = width - self.prefixlen
        if self.bits & ((1 << host) - 1):
            raise ValueError(f"host bits set below /{self.prefixlen}")

    @property
    def width(self) -> int:
        return WIDTH[self.family]

    def __str__(self) -> str:
        if self.family == V4:
            addr = ipaddress.IPv4Address(self.bits)
        else:
            addr = ipaddress.IPv6Address(self.bits)
        return f"{addr}/{self.prefixlen}"


@dataclass(frozen=True, slots=True, order=True)
class AddressBlock:
    """A prefix with a maxLength bound (prefixlen <= max_length <= width)."""

    prefix: Prefix
    max_length: int

    def __post_init__(self) -> None:
        if not self.prefix.prefixlen <= self.max_length <= self.prefix.width:
            raise ValueError(
                f"max_length {self.max_length} out of range for {self.prefix}"
            )

    @property
    def height(self) -> int:
        return self.max_length - self.prefix.prefixlen

    def __str__(self) -> str:
        return f"{self.prefix}-{self.max_length}"


def block_order(block: AddressBlock) -> tuple[int, int, int, int]:
    """A block's sort order as ints: the same order as ``<``, at a fraction of its cost."""
    prefix = block.prefix
    return prefix.family, prefix.bits, prefix.prefixlen, block.max_length


@dataclass(frozen=True, slots=True, order=True)
class Vrp:
    """A validated payload row: origin AS number plus one address block."""

    asn: int
    block: AddressBlock

    def __post_init__(self) -> None:
        if not 0 <= self.asn < 1 << 32:
            raise ValueError(f"asn {self.asn} out of range")


def _parse_v4(text: str, strict: bool) -> Prefix | None:
    """The plain ``a.b.c.d/n`` form, parsed without ipaddress; None for any other text.

    int() also takes signs, ``_`` separators, spaces and non-ASCII digits,
    so only text that is the canonical spelling of its numbers gets
    through.  A host-bits error under ``strict`` is left to ipaddress too,
    which words it.
    """
    addr, _, plen = text.partition("/")
    try:
        a, b, c, d = map(int, addr.split("."))
        n = int(plen)
    except ValueError:
        return None
    if (a | b | c | d) >> 8 or not 0 <= n <= 32 or f"{a}.{b}.{c}.{d}/{n}" != text:
        return None
    bits = a << 24 | b << 16 | c << 8 | d
    host = (1 << (32 - n)) - 1
    if bits & host:
        if strict:
            return None
        bits &= ~host
    return Prefix(V4, bits, n)


def parse_prefix(text: str, strict: bool = True) -> Prefix:
    """Parse ``addr/len``.  strict=False masks stray host bits instead of failing."""
    if "/" not in text:
        raise PrefixFormatError(f"missing /len in {text!r}")
    text = text.strip()
    fast = _parse_v4(text, strict)
    if fast is not None:
        return fast
    try:
        net = ipaddress.ip_network(text, strict=strict)
    except ValueError as exc:
        raise PrefixFormatError(str(exc)) from None
    family = V4 if net.version == 4 else V6
    return Prefix(family, int(net.network_address), net.prefixlen)


def covers(outer: Prefix, inner: Prefix) -> bool:
    """True when inner lies in outer's sub-tree (reflexive)."""
    if outer.family != inner.family:
        raise FamilyMismatchError(f"{outer} vs {inner}")
    if outer.prefixlen > inner.prefixlen:
        return False
    shift = outer.width - outer.prefixlen
    return inner.bits >> shift == outer.bits >> shift


def parent(prefix: Prefix) -> Prefix:
    if prefix.prefixlen == 0:
        raise ValueError("/0 has no parent")
    plen = prefix.prefixlen - 1
    mask = ~((1 << (prefix.width - plen)) - 1)
    return Prefix(prefix.family, prefix.bits & mask, plen)


def expand(block: AddressBlock, cap: int = DEFAULT_EXPANSION_CAP) -> set[Prefix]:
    """Every prefix the block authorizes: the full sub-tree down to max_length.

    Yields exactly 2^(height+1) - 1 prefixes; refuses heights above ``cap``.
    """
    root = block.prefix
    plen = root.prefixlen
    height = block.max_length - plen
    if height > cap:
        raise ExpansionCapError(f"block height {height} exceeds expansion cap {cap}")
    out = {root}
    if height:
        family, bits, width = root.family, root.bits, root.width
        for n in range(plen + 1, block.max_length + 1):
            # the 2^(n - plen) nodes of length n: the root's bits plus k steps of one /n
            count, step = 1 << (n - plen), 1 << (width - n)
            out.update(map(Prefix, repeat(family, count), range(bits, bits + count * step, step),
                           repeat(n, count)))
    return out
