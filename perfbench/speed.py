"""The host's speed, read from a fixed reference kernel between ops.

The shared host this benchmark runs on changes its CPU speed in steps of up
to 40% that last from seconds to about a minute; a pure-Python loop shows
the same steps in its own thread CPU time as in wall time (NOTES.md,
"Host speed").  So every op is bracketed by two readings of ``sample()``:
the thread CPU time of a fixed kernel that is the benchmark's own code and
never calls the program.  An op's time is then scaled to the reference
speed, at which the kernel takes ``REF_S``::

    scaled = elapsed * REF_S / mean(reading before, reading after)

Thread CPU time, not wall time, is read, so that the program's own threads
cannot slow the kernel: a program change that leaves work running in the
background shows in the op's wall time but not in the reading.
"""

from __future__ import annotations

import struct
import time

# Kernel thread CPU time that scaling maps to itself: the median reading on
# the reference machine (NOTES.md), so scaled times read close to raw ones
# there.  It is a fixed constant; changing it rescales every timed metric.
REF_S = 0.0013
REPS = 2  # readings per sample; the fastest is kept

# Fixed input: 48 CSV rows over 12 ASes, heights 0-4, never from the seed.
_ROWS = [
    (64500 + i % 12, (10 << 24) | ((i * 37) % 251) << 16 | (i % 16) << 12, 20, 20 + i % 5)
    for i in range(48)
]
_CSV = "\n".join(
    f"{asn},{b >> 24}.{(b >> 16) & 255}.{(b >> 8) & 255}.{b & 255}/{plen},{ml}"
    for asn, b, plen, ml in _ROWS
)
_PACK = struct.Struct("!BBHBBBBII")


def _kernel() -> int:
    """Parse, expand, group and pack: the kinds of work a publish and a sync do."""
    table: dict[int, set] = {}
    for line in _CSV.split("\n"):
        asn, prefix, ml = line.split(",")
        addr, plen = prefix.split("/")
        a, b, c, d = map(int, addr.split("."))
        bits, plen, ml = (a << 24) | (b << 16) | (c << 8) | d, int(plen), int(ml)
        out = table.setdefault(int(asn), set())
        for p in range(plen, ml + 1):
            shift = 32 - p
            for tail in range(1 << (p - plen)):
                out.add((bits | (tail << shift), p))
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 511] = counts.get(i & 511, 0) + i
    wire = bytearray()
    for asn in sorted(table):
        for bits, p in sorted(table[asn]):
            wire += _PACK.pack(2, 4, 0, 1, p, p, 0, bits, asn)
    return len(wire) + len(counts)


def sample() -> float:
    """Seconds of thread CPU time the kernel takes now (fastest of REPS)."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - t0)
    return best


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` as it would read at the reference speed."""
    return elapsed * REF_S / ((before + after) / 2)
