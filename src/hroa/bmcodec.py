"""Bitmap sub-tree codec.

A profile of "hanging levels" slices the address trie into disjoint
sub-trees: a prefix of length n hangs at the nearest profile level l <= n,
inside the sub-tree rooted at its first l bits.  One encoded block then
carries a whole sub-tree:

  identifier  2^l + (first l bits of the address)   (self-delimiting: the
              leading 1 bit recovers l, so ids never collide across levels)
  bitmap      bit 0 = withdraw flag, bit y = the sub-tree node numbered y
              in level order (root 1, node y's children 2y and 2y+1, left
              child = appended 0 bit)

A node of length n in the sub-tree rooted at level l is numbered
2^(n-l) + (bits l+1..n), mirroring the identifier construction one level
down.  A sub-tree of height h uses bitmap bits 1..2^h - 1 plus the flag.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

from .prefix import WIDTH, FamilyMismatchError, Prefix, _new_prefix

# Gap cap of the in-memory codec.  The wire bitmap bounds sub-trees to
# wire.MAX_SUBTREE_HEIGHT (5) levels, checked where a profile is chosen for
# the wire; acceptance criterion 3's random profiles round-trip height-6
# sub-trees without serializing them, so the codec itself allows 6.
MAX_GAP = 6


@dataclass(frozen=True, slots=True)
class HangingLevels:
    """A strictly ascending level profile starting at 0.

    Gaps between consecutive levels (and the terminal gap to width+1) are
    capped at ``MAX_GAP`` so bitmaps stay bounded: a gap of h means
    2^h-bit bitmaps.  ``level_of[n]`` is the level a prefix of length n
    hangs at, and ``height_at[l]`` the height of the sub-tree rooted at
    level l (0 where l is no profile level), both built once per profile.
    """

    family: int
    levels: tuple[int, ...]
    level_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    height_at: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in WIDTH:
            raise ValueError(f"bad family {self.family!r}")
        lv = self.levels
        if any(type(x) is not int for x in lv):  # a bool is an int subclass, but no level
            raise ValueError(f"levels must be integers, not {lv!r}")
        if not lv or lv[0] != 0:
            raise ValueError("profile must start at level 0")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("levels must be strictly ascending")
        if lv[-1] > self.width - 1:
            raise ValueError(f"last level {lv[-1]} exceeds {self.width - 1}")
        if self.max_height > MAX_GAP:
            raise ValueError(f"v{self.family} level gap {self.max_height} exceeds cap {MAX_GAP}")
        bounds = (*lv, self.width + 1)
        level_of = tuple(a for a, b in zip(bounds, bounds[1:]) for _ in range(a, b))
        object.__setattr__(self, "level_of", level_of)
        height_at = [0] * self.width
        for a, b in zip(bounds, bounds[1:]):
            height_at[a] = b - a
        object.__setattr__(self, "height_at", tuple(height_at))

    @classmethod
    def default(cls, family: int) -> "HangingLevels":
        """Levels 0, 5, 10, ...: terminal sub-tree height 3 for v4, 4 for v6."""
        return cls.multiples_of(5, family)

    @classmethod
    def multiples_of(cls, step: int, family: int) -> "HangingLevels":
        """Profile 0, step, 2*step, ... below the family width."""
        if step < 1:
            raise ValueError("step must be >= 1")
        return cls(family, tuple(range(0, WIDTH[family], step)))

    @classmethod
    def explicit(cls, family: int, levels: Iterable[int]) -> "HangingLevels":
        """User-supplied profile: sorted, deduplicated, level 0 added."""
        levels = tuple(levels)
        if all(type(x) is int for x in levels):  # the rest __post_init__ rejects as given
            levels = tuple(sorted(set(levels) | {0}))
        return cls(family, levels)

    @property
    def width(self) -> int:
        return WIDTH[self.family]

    @property
    def max_height(self) -> int:
        """Height of the tallest sub-tree: the widest gap, terminal one included."""
        bounds = (*self.levels, self.width + 1)
        return max(b - a for a, b in zip(bounds, bounds[1:]))


def make_subtree_id(prefix: Prefix, level: int) -> int:
    """2^level + the prefix's first `level` bits."""
    if not 0 <= level <= prefix.prefixlen:
        raise ValueError(f"level {level} not above {prefix}")
    return (1 << level) | (prefix.bits >> (prefix.width - level))


def make_node_number(prefix: Prefix, level: int) -> int:
    """2^(n-level) + bits level+1..n of the prefix (n = prefixlen)."""
    depth = prefix.prefixlen - level
    if depth < 0:
        raise ValueError(f"{prefix} is above level {level}")
    tail = (prefix.bits >> (prefix.width - prefix.prefixlen)) & ((1 << depth) - 1)
    return (1 << depth) | tail


class SubTreeBlock(namedtuple("SubTreeBlock", "family id bitmap")):
    """One encoded sub-tree: identifier and bitmap.

    A named tuple, so it equals, hashes and sorts like its plain
    ``(family, id, bitmap)`` tuple.  ``SubTreeBlock(...)`` checks its
    fields; ``_new_subtree_block`` builds one unchecked, for fields that
    are valid by construction.  Its height is the profile's at the
    identifier's level; decode_block checks the bitmap against it.
    """

    __slots__ = ()

    def __new__(cls, family: int, id: int, bitmap: int) -> "SubTreeBlock":
        if family not in WIDTH:
            raise ValueError(f"bad family {family!r}")
        if id < 1:
            raise ValueError("identifier must be >= 1")
        if bitmap < 0:
            raise ValueError("bitmap must be non-negative")
        if bitmap >> 1 == 0:
            raise ValueError("bitmap carries no sub-tree nodes")
        return tuple.__new__(cls, (family, id, bitmap))

    @property
    def flag(self) -> int:
        """0 = announce, 1 = withdraw."""
        return self.bitmap & 1


# Unchecked builder taking one (family, id, bitmap) tuple, for valid fields only.
_new_subtree_block = partial(tuple.__new__, SubTreeBlock)


@dataclass(frozen=True, slots=True)
class BitmapRoa:
    """A batch of sub-tree blocks for one origin AS."""

    asn: int
    blocks: tuple[SubTreeBlock, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.asn < 1 << 32:
            raise ValueError(f"asn {self.asn} out of range")
        ids = [b.id for b in self.blocks]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate sub-tree id in one batch")


def encode_batch(
    cfg: HangingLevels, prefixes: Iterable[Prefix], withdraw: bool = False
) -> list[SubTreeBlock]:
    """Fold prefixes into per-sub-tree bitmaps; one block per touched sub-tree.

    Bit 0 of every emitted bitmap carries the announce/withdraw flag.
    Output is sorted by identifier.
    """
    flag = 1 if withdraw else 0
    family, width, level_of = cfg.family, cfg.width, cfg.level_of
    acc: dict[int, int] = {}  # id -> bitmap
    for p in prefixes:
        fam, bits, n = p
        if fam != family:
            raise FamilyMismatchError(f"{p} in a v{family} batch")
        level = level_of[n]
        depth = n - level
        top = bits >> (width - n)  # the prefix's n bits
        # make_subtree_id and make_node_number: a leading 1, then the first
        # `level` bits for the id and the `depth` bits after them for the node
        sid = 1 << level | top >> depth
        node = 1 << depth | top & ((1 << depth) - 1)
        acc[sid] = acc.get(sid, 0) | 1 << node
    return [_new_subtree_block((family, sid, bm | flag)) for sid, bm in sorted(acc.items())]


def decode_block(cfg: HangingLevels, block: SubTreeBlock) -> tuple[int, set[Prefix]]:
    """Rebuild (flag, prefixes) from one block.  Inverse of encode_batch."""
    family, sid, bitmap = block
    if family != cfg.family:
        raise FamilyMismatchError(f"block family v{family} vs cfg v{cfg.family}")
    if sid < 1:
        raise ValueError("identifier must be >= 1")
    level = sid.bit_length() - 1  # the identifier's leading 1 bit marks its level
    height = cfg.height_at[level] if level < len(cfg.height_at) else 0
    if not height:
        raise ValueError(f"{level} is not a profile level")
    if bitmap >> (1 << height):
        raise ValueError("bitmap has node bits beyond the sub-tree")
    width = WIDTH[family]
    root = (sid ^ (1 << level)) << (width - level)
    out = set()
    rest = bitmap & ~1
    while rest:  # each set bit y >= 1 is node y: depth d = bit_length - 1, tail y - 2^d
        low = rest & -rest
        rest ^= low
        y = low.bit_length() - 1
        depth = y.bit_length() - 1
        n = level + depth
        out.add(_new_prefix((family, root | (y ^ (1 << depth)) << (width - n), n)))
    return bitmap & 1, out


@dataclass(slots=True)
class Stm:
    """Sub-tree map: one AS's announce (flag 0) or withdraw (flag 1) state.

    Single-writer; the table maps identifier -> bitmap with bit 0 always
    equal to ``flag``.
    """

    asn: int
    flag: int
    table: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.flag not in (0, 1):
            raise ValueError("flag must be 0 or 1")
        if not 0 <= self.asn < 1 << 32:
            raise ValueError(f"asn {self.asn} out of range")


def stm_insert(stm: Stm, block: SubTreeBlock) -> Stm:
    """Merge one block into the map (in place).

    A block whose flag matches the map ORs its bits in; an opposing block
    clears them.  Entries left with no node bits are dropped, and bit 0 of
    every stored bitmap is re-forced to the map's own flag.
    """
    cur = stm.table.get(block.id, 0)
    if block.flag == stm.flag:
        cur |= block.bitmap
    else:
        cur &= ~block.bitmap
    if cur >> 1 == 0:
        stm.table.pop(block.id, None)
    else:
        stm.table[block.id] = (cur & ~1) | stm.flag
    return stm


def apply_roa(cache: tuple[Stm, Stm], roa: BitmapRoa) -> tuple[Stm, Stm]:
    """Apply a batch to an AS's (announce, withdraw) map pair.

    Announce blocks land in the announce map.  Withdraw blocks accumulate
    in the withdraw map and additionally clear the announce map, so a
    withdrawal retracts previously announced prefixes.
    """
    ann, wd = cache
    if ann.flag != 0 or wd.flag != 1:
        raise ValueError("cache must be (announce Stm, withdraw Stm)")
    if ann.asn != roa.asn or wd.asn != roa.asn:
        raise ValueError(f"batch for AS{roa.asn} applied to another AS's cache")
    for block in roa.blocks:
        if block.flag:
            stm_insert(wd, block)
            stm_insert(ann, block)
        else:
            stm_insert(ann, block)
    return cache


def stm_blocks(stm: Stm, cfg: HangingLevels) -> list[SubTreeBlock]:
    """The map's current state as emittable blocks, sorted by identifier."""
    return [SubTreeBlock(cfg.family, sid, bm) for sid, bm in sorted(stm.table.items())]


def stm_decode(stm: Stm, cfg: HangingLevels) -> set[Prefix]:
    """Every prefix currently present in the map."""
    out: set[Prefix] = set()
    for block in stm_blocks(stm, cfg):
        _, prefixes = decode_block(cfg, block)
        out |= prefixes
    return out
