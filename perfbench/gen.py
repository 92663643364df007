"""Seeded input generators for the benchmark.

Everything here is the benchmark's own work: it never imports ``hroa``.
A row is ``(asn, family, bits, prefixlen, max_length)`` with ``bits`` the
full-width address integer; the program only ever sees the CSV text that
``to_csv`` makes from the rows.
"""

from __future__ import annotations

import ipaddress
import random
from collections import Counter
from typing import NamedTuple

V4, V6 = 4, 6
WIDTH = {V4: 32, V6: 128}


class Row(NamedTuple):
    asn: int
    family: int
    bits: int
    prefixlen: int
    max_length: int

    @property
    def height(self) -> int:
        return self.max_length - self.prefixlen


def _fmt(row: Row) -> str:
    if row.family == V4:
        b = row.bits
        addr = f"{b >> 24}.{(b >> 16) & 255}.{(b >> 8) & 255}.{b & 255}"
    else:
        addr = str(ipaddress.IPv6Address(row.bits))
    return f"{row.asn},{addr}/{row.prefixlen},{row.max_length}"


def to_csv(rows: list[Row]) -> str:
    return "asn,prefix,max_length\n" + "\n".join(map(_fmt, rows)) + "\n"


# --- scattered: the paper's worst case for maxLength -------------------------

SCATTERED_ASES = 320
SCATTERED_ROOTS_PER_AS = 2
SCATTERED_ROOT_LEN = 20
SCATTERED_LEAF_LEN = 24


def scattered_rows(seed: int, ases: int = SCATTERED_ASES) -> list[Row]:
    """Every AS holds two full /20 sub-trees at /24 and nothing else.

    Same-length leaves never merge into maxLength blocks (their parents are
    absent), so the minimal maxLength encoding is one PDU per row, while
    the 16 leaves under one /20 share a single sub-tree bitmap.
    """
    rng = random.Random(f"scattered:{seed}")
    slots = 1 << (SCATTERED_LEAF_LEN - SCATTERED_ROOT_LEN)
    taken: set[int] = set()
    rows: list[Row] = []
    for i in range(ases):
        asn = 64501 + i
        for _ in range(SCATTERED_ROOTS_PER_AS):
            while True:
                root = rng.getrandbits(SCATTERED_ROOT_LEN)
                if root not in taken:
                    taken.add(root)
                    break
            for tail in rng.sample(range(slots), slots):
                bits = ((root << (SCATTERED_LEAF_LEN - SCATTERED_ROOT_LEN)) | tail) << (
                    32 - SCATTERED_LEAF_LEN
                )
                rows.append(Row(asn, V4, bits, SCATTERED_LEAF_LEN, SCATTERED_LEAF_LEN))
    return rows


# --- mixed: heavy-tailed AS sizes, dual stack, a spread of heights ----------

MIXED_ROWS = 4_000
MIXED_LARGEST_AS = 1_200
MIXED_SIZE_EXPONENT = 1.25
# Exact row counts per block height; every other row is an exact prefix.
# Heights >= 3 ride the maxLength path under the default hybrid threshold.
# The tail stops at 12: one height-h block expands to 2^(h+1) - 1 prefixes
# on the client, and a taller tail would put fewer than 100 syncs in a run.
MIXED_HEIGHTS = {1: 400, 2: 200, 3: 50, 4: 25, 5: 12, 6: 6, 7: 3, 8: 2, 9: 1, 10: 1, 11: 1, 12: 1}
MIXED_V6_SHARE_DUAL = 0.4  # v6 share of a dual-stack AS's rows
MIXED_CHURN = 40  # rows replaced per serial
V4_HOME_LEN, V4_MAX = 16, 24
V6_HOME_LEN, V6_MAX = 32, 48
ROWS_PER_HOME = 64


def mixed_sizes(total: int = MIXED_ROWS) -> list[int]:
    """Deterministic heavy-tailed AS sizes: largest / i^1.25, at least 1.

    The largest AS keeps the same share of the rows at any total.
    """
    largest = MIXED_LARGEST_AS * total // MIXED_ROWS
    sizes: list[int] = []
    left = total
    i = 1
    while left > 0:
        s = min(left, max(1, int(largest / i**MIXED_SIZE_EXPONENT)))
        sizes.append(s)
        left -= s
        i += 1
    return sizes


def _as_kind(index: int) -> str:
    """Family mix by AS rank (1-based): v6-only, dual-stack or v4-only."""
    if index % 5 == 0:
        return "v6"
    if index % 5 == 2:
        return "dual"
    return "v4"


class _MixedPlacer:
    """Places rows inside each (AS, family)'s home blocks, without duplicates."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.homes: dict[tuple[int, int], list[int]] = {}
        self.taken_homes: dict[int, set[int]] = {V4: set(), V6: set()}

    def add_homes(self, asn: int, family: int, rows: int) -> None:
        home_len = V4_HOME_LEN if family == V4 else V6_HOME_LEN
        width = WIDTH[family]
        homes = []
        for _ in range(-(-rows // ROWS_PER_HOME)):
            while True:
                h = self.rng.getrandbits(home_len)
                if family == V6:
                    h = (0b001 << (home_len - 3)) | (h >> 3)  # inside 2000::/3
                if h not in self.taken_homes[family]:
                    self.taken_homes[family].add(h)
                    break
            homes.append(h << (width - home_len))
        self.homes[(asn, family)] = homes

    def place(self, asn: int, family: int, height: int, used: set[Row]) -> Row:
        width = WIDTH[family]
        home_len, max_len = (V4_HOME_LEN, V4_MAX) if family == V4 else (V6_HOME_LEN, V6_MAX)
        plen = max_len - height
        rng = self.rng
        while True:
            if plen < home_len:
                # too tall for a home /16: a /12../15 block anywhere
                bits = rng.getrandbits(plen) << (width - plen)
            else:
                home = rng.choice(self.homes[(asn, family)])
                bits = home | rng.getrandbits(plen - home_len) << (width - plen)
            row = Row(asn, family, bits, plen, max_len)
            if row not in used:
                used.add(row)
                return row


def mixed_rows(seed: int, total: int = MIXED_ROWS) -> tuple[list[Row], _MixedPlacer]:
    rng = random.Random(f"mixed:{seed}")
    sizes = mixed_sizes(total)
    heights = [h for h, n in MIXED_HEIGHTS.items() for _ in range(n)]
    heights += [0] * (total - len(heights))
    rng.shuffle(heights)
    placer = _MixedPlacer(rng)
    used: set[Row] = set()
    rows: list[Row] = []
    at = 0
    for index, size in enumerate(sizes, start=1):
        asn = 4_200_000_000 + index if index % 7 == 3 else 65000 + index * 3
        kind = _as_kind(index)
        if kind == "v4":
            split = {V4: size}
        elif kind == "v6":
            split = {V6: size}
        else:
            n6 = min(size - 1, max(1, round(size * MIXED_V6_SHARE_DUAL)))
            split = {V4: size - n6, V6: n6}
        for family, n in split.items():
            placer.add_homes(asn, family, n)
            for _ in range(n):
                rows.append(placer.place(asn, family, heights[at], used))
                at += 1
    rng.shuffle(rows)
    return rows, placer


def churn(rows: list[Row], placer: _MixedPlacer, rng: random.Random, count: int) -> list[Row]:
    """A copy of rows with ``count`` rows replaced by fresh ones of the same shape."""
    out = list(rows)
    used = set(out)
    for i in rng.sample(range(len(out)), count):
        old = out[i]
        used.discard(old)
        out[i] = placer.place(old.asn, old.family, old.height, used)
    return out


# --- shape record ------------------------------------------------------------

def shape(
    rows: list[Row],
    authorized: int,
    subtrees_per_as: dict[int, int],
    serials: list[list[Row]] | None = None,
) -> dict:
    """The input's shape as the benchmark records it with each run."""
    per_as: dict[int, list[Row]] = {}
    for r in rows:
        per_as.setdefault(r.asn, []).append(r)
    out = {
        "rows": len(rows),
        "ases": len(per_as),
        "largest_as_rows": max(len(v) for v in per_as.values()),
        "v6_share": round(sum(r.family == V6 for r in rows) / len(rows), 4),
        "dual_stack_ases": sum(len({r.family for r in v}) == 2 for v in per_as.values()),
        "height_histogram": dict(sorted(Counter(r.height for r in rows).items())),
        "authorized_prefixes": authorized,
        "largest_as_subtrees": max(subtrees_per_as.values(), default=0),
    }
    if serials and len(serials) > 1:
        shares = []
        for a, b in zip(serials, serials[1:]):
            changed = {r.asn for r in set(a) ^ set(b)}
            shares.append(1 - len(changed) / len(per_as))
        out["unchanged_as_share"] = round(sum(shares) / len(shares), 4)
    return out
