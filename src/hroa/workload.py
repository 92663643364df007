"""Authorization workloads: CSV ingestion and synthetic generators.

The row format is ``asn,prefix/len,max_length``.  An optional header line
is skipped: the first row is one when its AS column holds no number.  The
AS number may carry an ``AS`` prefix, extra columns are ignored, and an
empty max_length means "equal to the prefix length".  A path is read as
UTF-8 whatever the locale, and one leading byte order mark is ignored.
Prefixes are parsed leniently (stray host bits are masked off).  A data
row in the canonical spelling, ``addr/len,max_length`` with no host bits,
becomes its block in the ingest loop itself, with no call per row but
``Workload.add``: the loop reads each AS text once, ``inet_pton`` reads the
address, ``prefix._DECIMAL`` the length and max_length, and
``prefix._HOST_MASK`` tests the host bits.  Every other row, and every
error text, comes from ``_parse_row`` and ``prefix.parse_prefix``.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from itertools import chain
from socket import AF_INET, AF_INET6, inet_pton
from typing import Iterable

from .hybrid import expand_all
from .prefix import (
    V4,
    V6,
    WIDTH,
    AddressBlock,
    Prefix,
    PrefixFormatError,
    _DECIMAL,
    _HOST_MASK,
    _new_block,
    _new_prefix,
    parse_prefix,
)

_ADDRESS_FAMILY = {V4: AF_INET, V6: AF_INET6}


def _asn_number(text: str) -> int | None:
    """The number in an AS column, ``AS`` prefix allowed; None when there is none."""
    t = text.strip()
    if t[:2].upper() == "AS":
        t = t[2:]
    try:
        return int(t, 10)
    except ValueError:
        return None


def _parse_asn(text: str) -> int:
    asn = _asn_number(text)
    if asn is None:
        raise PrefixFormatError(f"bad AS number {text!r}")
    if not 0 <= asn < 1 << 32:
        raise PrefixFormatError(f"AS number {asn} out of range")
    return asn


def _parse_row(row: list[str], lineno: int, asns: dict[str, int]) -> tuple[int, AddressBlock]:
    """One CSV row as ``(asn, block)``, reading its AS column through ``asns`` (text -> number)."""
    if len(row) < 2:
        raise PrefixFormatError(f"line {lineno}: expected asn,prefix/len,max_length")
    try:
        asn = asns.get(row[0])
        if asn is None:
            asn = asns[row[0]] = _parse_asn(row[0])
        prefix = parse_prefix(row[1], strict=False)
        family, _, plen = prefix
        raw_max = row[2] if len(row) > 2 else ""
        max_length = _DECIMAL.get(raw_max)
        if max_length is None:  # empty, or a lenient spelling such as " 9" or "+9"
            raw_max = raw_max.strip()
            max_length = int(raw_max) if raw_max else plen
        if not plen <= max_length <= WIDTH[family]:
            raise ValueError(f"max_length {max_length} out of range for {prefix}")
    except (PrefixFormatError, ValueError) as exc:
        raise PrefixFormatError(f"line {lineno}: {exc}") from None
    return asn, _new_block((prefix, max_length))


@dataclass
class Workload:
    """Per-AS sets of address blocks."""

    entries: dict[int, set[AddressBlock]] = field(default_factory=dict)

    def add(self, asn: int, block: AddressBlock) -> None:
        blocks = self.entries.get(asn)
        if blocks is None:
            self.entries[asn] = {block}
        else:
            blocks.add(block)

    def asns(self) -> list[int]:
        return sorted(self.entries)

    def vrp_count(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def prefixes_for(self, asn: int) -> set[Prefix]:
        return expand_all(self.entries[asn])

    def without_as0(self) -> "Workload":
        return Workload({a: set(v) for a, v in self.entries.items() if a != 0})


def load_csv(path_or_file) -> Workload:
    """Read a workload; accepts a path or an open text file."""
    if hasattr(path_or_file, "read"):
        return _load(path_or_file, getattr(path_or_file, "name", "<stream>"))
    with open(path_or_file, newline="", encoding="utf-8") as fh:
        try:
            return _load(fh, str(path_or_file))
        except UnicodeDecodeError as exc:
            raise PrefixFormatError(f"{path_or_file}: not UTF-8 text ({exc.reason})") from None


def _load(fh, source: str) -> Workload:
    w = Workload()
    add = w.add
    asns: dict[str, int] = {}  # every AS text a data row held, parsed once per load
    asn_of, decimal, from_bytes = asns.get, _DECIMAL.get, int.from_bytes
    lines = iter(fh)
    first = next(lines, "").removeprefix("\ufeff")  # a UTF-8 byte order mark
    first_data = True
    for lineno, row in enumerate(csv.reader(chain((first,), lines)), start=1):
        asn = asn_of(row[0]) if row else None
        if asn is None:  # no earlier data row held this AS text
            if not "".join(row).strip() or row[0].strip().startswith("#"):
                continue
            if first_data:
                first_data = False
                if _asn_number(row[0]) is None:
                    continue  # header line
            try:
                asn = asns[row[0]] = _parse_asn(row[0])
            except PrefixFormatError:
                pass  # _parse_row words the error
        if asn is not None and len(row) > 2:
            # in its canonical spelling (no host bits) a data row becomes its block here
            addr, _, plen = row[1].partition("/")
            family = V6 if ":" in addr else V4
            try:
                bits = from_bytes(inet_pton(_ADDRESS_FAMILY[family], addr), "big")
            except (OSError, ValueError):  # ValueError: a NUL or a lone surrogate
                pass
            else:
                n, max_length = decimal(plen, 256), decimal(row[2], -1)
                # n <= max_length <= width first: only then is n an index of the mask table
                if n <= max_length <= WIDTH[family] and not bits & _HOST_MASK[family][n]:
                    add(asn, _new_block((_new_prefix((family, bits, n)), max_length)))
                    continue
        add(*_parse_row(row, lineno, asns))
    if not w.entries:
        raise PrefixFormatError(f"{source}: no usable rows")
    return w


def dump_csv(rows: Iterable[tuple[int, AddressBlock]]) -> str:
    """``(asn, block)`` rows as ``asn,prefix/len,max_length`` under a header line, as text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["asn", "prefix", "max_length"])
    for asn, (prefix, max_length) in rows:
        writer.writerow([asn, str(prefix), max_length])
    return out.getvalue()


# synthetic_scattered's shape: each AS's random /20 sub-trees, and the /24
# leaves that fill each of them
_ROOTS_PER_AS = 2
_ROOT_LEN = 20
_LEAF_LEN = 24


def synthetic_scattered(vrp_count: int, seed: int = 0) -> Workload:
    """A worst-case-for-maxLength workload: singleton blocks, shared sub-trees.

    Every AS gets two random /20 sub-trees, each filled with its sixteen
    /24 leaves (the last one with as many as ``vrp_count`` leaves room for).
    Same-length sets never merge into taller blocks, so the minimal
    maxLength encoding stays one PDU per prefix while all leaves of a
    sub-tree share one bitmap.
    """
    if vrp_count < 1:
        raise ValueError("vrp_count must be >= 1")
    rng = random.Random(seed)
    slots = 1 << (_LEAF_LEN - _ROOT_LEN)
    w = Workload()
    asn = 64500
    made = 0
    taken_roots: set[int] = set()
    while made < vrp_count:
        asn += 1
        for _ in range(_ROOTS_PER_AS):
            if made >= vrp_count:
                break
            while True:
                root = rng.getrandbits(_ROOT_LEN) << (32 - _ROOT_LEN)
                if root not in taken_roots:
                    taken_roots.add(root)
                    break
            for tail in rng.sample(range(slots), min(slots, vrp_count - made)):
                bits = root | (tail << (32 - _LEAF_LEN))
                block = AddressBlock(Prefix(V4, bits, _LEAF_LEN), _LEAF_LEN)
                w.add(asn, block)
                made += 1
    return w
