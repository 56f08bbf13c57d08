"""Prime gap scans: records, first occurrences, and interval densities.

The gap scans are kernels on scan.scan(): the state of a range carries
its first and last prime, so the gap across a boundary is credited when
two ranges merge, and results are identical for any segment size, thread
count or checkpoint stride.  A gap belongs to its starting prime p; the
successor is looked up past the scan bound when p is the last prime in
range.  The unique odd gap 1 (from 2 to 3) is kept for completeness.

A segment is read in chunks of sieve._AND_CHUNK odds (instance_chunks),
so no temporary grows with the segment: the last prime is carried from
chunk to chunk, and the chunk's statistics are joined in order.  A
kernel may ask a chunk only for its gaps of at least 2 * half, its
floor; from BLOCK_SCAN_GAP on these are read from the chunk's aligned
all-composite blocks (_gap_ends), not from its every prime.

The gap statistics (_GapStats) raise their floor as the segment goes.
Once every even gap up to G has its first occurrence in the segment's
table, a gap g <= G changes nothing: its first occurrence is already
held, and it is no record, since a gap of G occurred and every record
is the largest gap so far.  So the floor is the least even gap not yet
held, and the table is the one every gap would give; results cannot
depend on where the floor stands.  Near 1e9 it passes 64 after a
segment's first chunk, and most chunks then hold a few gaps above it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .census import count_primes
from .config import Config
from .scan import Kernel, scan
from .sieve import _odd_count, instance_chunks, is_prime_64

__all__ = [
    "GapRecord",
    "GapScan",
    "GapExtremes",
    "IntervalCount",
    "scan_gaps",
    "first_occurrence",
    "missing_gaps",
    "interval_prime_count",
    "primes_between_squares",
    "short_interval_above_square",
    "normalized_gap_extremes",
    "hunt_gap",
]

_KINDS = ("first_occurrence", "maximal")

# Gaps from this size on are read from the long composite runs only
# (at least 32, so a block is whole 64-bit words).  Below it most blocks
# of g // 4 odds are empty, so listing their runs costs more than listing
# every prime: at 1e12, a 4M-odd segment took 15-21 ms by blocks against
# 12-13 ms directly for g from 8 to 40, and 4 ms against 12 ms at g =
# 100.  A chunk of 2**16 odds near 1e9 took 60-80 us by blocks against
# 150-200 us directly for gaps from 100 on.
BLOCK_SCAN_GAP = 64

# a segment's gaps are put into its statistics, and its floor raised,
# once this many have been found
_BATCH = 1 << 10


@dataclass(frozen=True)
class GapRecord:
    p: int
    gap: int
    kind: str

    def __post_init__(self) -> None:
        if self.p < 2 or self.gap < 1:
            raise ValueError("need p >= 2 and gap >= 1")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")


class GapScan(NamedTuple):
    first_occurrences: dict[int, int]
    maximal: list[GapRecord]


class GapExtremes(NamedTuple):
    min_value: float
    min_witness: tuple[int, int]
    max_value: float
    max_witness: tuple[int, int]


class IntervalCount(NamedTuple):
    count: int
    expected: float
    ratio: float


def _gap_ends(flags: np.ndarray, half: int):
    """(first, last, a, b) over the marked indices of flags: the first and
    the last, and the starts a and ends b (int64 arrays) of the gaps
    between consecutive ones with b - a >= half >= 1; None if none is
    marked.

    From 2 * half >= BLOCK_SCAN_GAP, and when flags is a whole number of
    blocks of width odds, the largest power of two <= half / 2, only the
    blocks are read: a gap of h >= half odds leaves h - 1 >= 2 * width - 1
    composite odds between its ends, so they cover an aligned block.
    """
    width = 1 << max(half // 2, 1).bit_length() - 1
    if 2 * half < BLOCK_SCAN_GAP or len(flags) % width:
        idx = flags.nonzero()[0]
        if not len(idx):
            return None
        a, b = idx[:-1], idx[1:]
        if half > 1:
            wide = b - a >= half
            a, b = a[wide], b[wide]
        return int(idx[0]), int(idx[-1]), a, b
    # which blocks hold a marked index, by pairwise ORs of 64-bit words
    busy, w = flags.view(np.uint64), width // 8
    while w > 1:
        busy, w = busy[0::2] | busy[1::2], w // 2
    busy = busy.astype(bool)
    b0 = int(busy.argmax())  # the first and last busy blocks
    if not busy[b0]:
        return None
    b1 = len(busy) - 1 - int(busy[::-1].argmax())
    # a run of k empty blocks lies between the last marked index of the
    # block before it and the first of the block after it, so it holds a
    # gap of h odds, k * width < h < (k + 2) * width; as half < 4 * width,
    # it may hold one of h >= half when k >= 2, or k >= 1 if half < 3 *
    # width.  Runs of 2 are runs of 1 in an AND of neighbours.
    two = half >= 3 * width
    empty = ~busy[b0:b1 + 1]
    if two:
        empty = empty[:-1] & empty[1:]
    turns = (empty[1:] != empty[:-1]).nonzero()[0]  # runs start, end, ...
    blocks = flags.reshape(-1, width)
    first = b0 * width + int(blocks[b0].argmax())
    last = (b1 + 1) * width - 1 - int(blocks[b1, ::-1].argmax())
    if not len(turns):  # no run is long enough, as most often
        return first, last, turns, turns
    turns += b0 + 1
    r0, r1 = turns[0::2], turns[1::2] + two
    a = r0 * width - 1 - blocks[r0 - 1, ::-1].argmax(axis=1)
    b = r1 * width + blocks[r1].argmax(axis=1)
    wide = b - a >= half
    return first, last, a[wide], b[wide]


class _GapCarry(NamedTuple):
    first: int | None  # first prime of the range
    last: int | None  # last prime of the range
    stats: object  # of the gaps between the range's primes


class _GapKernel(Kernel):
    """Statistics of the gaps from each prime p <= bound to its successor.

    A range's state carries its first and last prime: merge credits the
    gap between two ranges to the earlier one's last prime, and finish
    looks up the successor of the last prime.  Primes above the bound are
    ignored, so the kernel may run under a walk that goes past it.  A
    subclass gives NONE, the statistics of no gaps; stats(starts, gaps),
    those of a gap array; and join(a, b), those of a's gaps then b's.  It
    may give floor(stats): half the least gap that can change stats, so
    that a chunk reports only its gaps from twice the floor on (and the
    one across its start).
    """

    def __init__(self, bound: int):
        self.bound = bound

    def empty(self) -> _GapCarry:
        return _GapCarry(None, None, self.NONE)

    def floor(self, stats) -> int:
        return 1

    def segment(self, lo: int, hi: int, bits: np.ndarray) -> _GapCarry:
        top = min(hi, self.bound + 1)
        first = last = 2 if lo == 2 < top else None  # no bit holds 2
        stats, found, held = self.NONE, [], 0
        half = self.floor(stats)
        for i, flags in instance_chunks(bits, _odd_count(lo, top), ()):
            ends = _gap_ends(flags, half)
            if ends is None:
                continue
            f, l, a, b = ends
            at = lo + 1 + 2 * i  # the odd of flags[0]
            if last is None:
                first = at + 2 * f
            elif half == 1 or at + 2 * f - last >= 2 * half:
                # the gap across the chunk's start, unless below the floor
                found.append(([last], [at + 2 * f - last]))
            if len(a):
                found.append((at + 2 * a, 2 * (b - a)))
                held += len(a)
            last = at + 2 * l
            if held >= _BATCH:  # few gaps pass a high floor: batch them
                stats = self.join(stats, self.stats(
                    *map(np.concatenate, zip(*found))))
                half, found, held = self.floor(stats), [], 0
        if found:
            stats = self.join(stats, self.stats(
                *map(np.concatenate, zip(*found))))
        return _GapCarry(first, last, stats)

    def _then_gap(self, stats: tuple, p: int, q: int) -> tuple:
        return self.join(stats, self.stats(np.array([p]), np.array([q - p])))

    def merge(self, acc: _GapCarry, part: _GapCarry) -> _GapCarry:
        if self.done(acc) or part.first is None:
            return acc
        if acc.last is None:
            return part
        stats = self._then_gap(acc.stats, acc.last, part.first)
        return _GapCarry(acc.first, part.last, self.join(stats, part.stats))

    def finish(self, state: _GapCarry) -> _GapCarry:
        last = state.last
        if self.done(state) or last is None:
            return state
        nxt = _first_prime_in(last + 1, 2 * last)  # Bertrand's postulate
        return state._replace(stats=self._then_gap(state.stats, last, nxt))


class _GapTable(NamedTuple):
    firsts: dict[int, int]  # gap -> its first start p
    maximal: tuple[tuple[int, int], ...]  # (p, gap), each above all before


class _GapStats(_GapKernel):
    """First occurrences and maximal records.  With wanted, the scan is
    done once every even gap up to wanted has occurred (missing_gaps)."""

    NONE = _GapTable({}, ())

    def __init__(self, bound: int, wanted: int = 0):
        super().__init__(bound)
        self.wanted = range(2, wanted + 1, 2)
        self.task_id = (f"gap_missing({wanted})@{bound}" if wanted
                        else f"gap_scan@{bound}")

    def stats(self, starts: np.ndarray, gaps: np.ndarray) -> _GapTable:
        n = len(gaps)
        at = np.full(int(gaps.max()) + 1, n)
        np.minimum.at(at, gaps, np.arange(n))  # a linear pass, no sort
        seen = np.flatnonzero(at < n)
        best = np.maximum.accumulate(gaps)
        rec = np.concatenate(([0], np.flatnonzero(gaps[1:] > best[:-1]) + 1))
        return _GapTable(dict(zip(seen.tolist(), starts[at[seen]].tolist())),
                         tuple(zip(starts[rec].tolist(), gaps[rec].tolist())))

    def floor(self, table: _GapTable) -> int:
        g = 2  # the least even gap not held; none below it changes table
        while g in table.firsts:
            g += 2
        return g // 2

    def join(self, a: _GapTable, b: _GapTable) -> _GapTable:
        top = a.maximal[-1][1] if a.maximal else 0
        return _GapTable({**b.firsts, **a.firsts},
                         a.maximal + tuple(r for r in b.maximal if r[1] > top))

    def done(self, state: _GapCarry) -> bool:
        return bool(self.wanted) and all(g in state.stats.firsts
                                         for g in self.wanted)

    def dump(self, state: _GapCarry) -> dict:
        return {"last": None if state.last is None else str(state.last),
                "firsts": [[g, str(p)] for g, p in state.stats.firsts.items()],
                "maximal": [[str(p), g] for p, g in state.stats.maximal]}

    def load(self, payload: dict, range_done: int) -> _GapCarry:
        last = payload["last"]
        return _GapCarry(None, None if last is None else int(last), _GapTable(
            {int(g): int(p) for g, p in payload["firsts"]},
            tuple((int(p), int(g)) for p, g in payload["maximal"])))


class _GapExtremes(_GapKernel):
    """The least and the greatest gap / log(p), each with its earliest
    witness (p, gap)."""

    NONE = GapExtremes(math.inf, (0, 0), -math.inf, (0, 0))

    def __init__(self, bound: int):
        super().__init__(bound)
        self.task_id = f"gap_extremes@{bound}"

    def stats(self, starts: np.ndarray, gaps: np.ndarray) -> GapExtremes:
        vals = gaps / np.log(starts)
        i, j = int(np.argmin(vals)), int(np.argmax(vals))
        return GapExtremes(float(vals[i]), (int(starts[i]), int(gaps[i])),
                           float(vals[j]), (int(starts[j]), int(gaps[j])))

    def join(self, a: GapExtremes, b: GapExtremes) -> GapExtremes:
        low = b[:2] if b.min_value < a.min_value else a[:2]
        high = b[2:] if b.max_value > a.max_value else a[2:]
        return GapExtremes(*low, *high)


def _missing(firsts: dict[int, int], max_gap: int) -> list[int]:
    return [g for g in range(2, max_gap + 1, 2) if g not in firsts]


def scan_gaps(limit: int, *, cfg: Config | None = None,
              checkpoint_path: str | None = None,
              checkpoint_stride: int = 1 << 30) -> GapScan:
    """First occurrence of each realized gap and all maximal-gap records.

    Gap starts p < limit; the final prime's successor is looked up beyond
    the limit so its gap is still well defined.  Resumable as hunt_gap is.
    """
    if limit < 3:
        raise ValueError("limit must be at least 3")
    state = scan(2, limit, _GapStats(limit - 1), cfg, checkpoint_path,
                 checkpoint_stride)
    return GapScan(dict(sorted(state.stats.firsts.items())),
                   [GapRecord(p, g, "maximal") for p, g in state.stats.maximal])


def first_occurrence(gap: int, limit: int, *,
                     cfg: Config | None = None) -> GapRecord | None:
    """Smallest prime p <= limit whose successor is exactly p + gap."""
    if gap < 1:
        raise ValueError("gap must be >= 1")
    if limit < 2:
        raise ValueError("limit must be at least 2")
    return hunt_gap(gap, limit, cfg=cfg)


def missing_gaps(limit: int, max_gap: int, *,
                 cfg: Config | None = None) -> list[int]:
    """Even gaps <= max_gap never realized by a prime start below limit."""
    if max_gap % 2 or max_gap < 2:
        raise ValueError("max_gap must be a positive even number")
    if limit < 3:
        raise ValueError("limit must be at least 3")
    state = scan(2, limit, _GapStats(limit - 1, max_gap), cfg)
    return _missing(state.stats.firsts, max_gap)


def _integer_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, exact for any size of n."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def interval_prime_count(x: int, theta) -> IntervalCount:
    """Primes in (x, x + floor(x**theta)] against the x**theta / log x density.

    theta may be a Fraction (window computed exactly via integer roots) or
    a float, read as its shortest decimal: 0.55 means 11/20.
    """
    if x < 10:
        raise ValueError("x must be at least 10")
    th = Fraction(repr(theta)) if isinstance(theta, float) else Fraction(theta)
    if not 0 < th < 1:
        raise ValueError("theta must lie strictly between 0 and 1")
    window = _integer_root(x ** th.numerator, th.denominator)
    count = count_primes(x + 1, x + window)
    expected = math.exp(float(th) * math.log(x)) / math.log(x)
    return IntervalCount(count, expected, count / expected)


def _first_prime_in(a: int, b: int) -> int | None:
    """Smallest prime in [a, b], scanning candidates directly."""
    if b < a:
        return None
    if a <= 2 <= b:
        return 2
    c = max(a, 3) | 1
    while c <= b:
        if is_prime_64(c):
            return c
        c += 2
    return None


def primes_between_squares(N: int) -> list[int]:
    """All n <= N with no prime in (n**2, (n+1)**2); expected empty."""
    if N < 1:
        raise ValueError("N must be at least 1")
    out = []
    for n in range(1, N + 1):
        if _first_prime_in(n * n + 1, (n + 1) * (n + 1) - 1) is None:
            out.append(n)
    return out


def short_interval_above_square(N: int, e: float) -> float:
    """Fraction of n <= N with a prime in (n**2, n**2 + n**e]."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if not 1 < e < math.inf:
        raise ValueError("exponent must be finite and exceed 1")
    try:  # n**e <= N**e for every n, so one check covers the loop
        float(N) ** e
    except OverflowError:
        raise ValueError(f"{N}**{e} overflows a float") from None
    hits = 0
    for n in range(1, N + 1):
        top = n * n + int(n**e)
        if _first_prime_in(n * n + 1, top) is not None:
            hits += 1
    return hits / N


def normalized_gap_extremes(limit: int, *,
                            cfg: Config | None = None) -> GapExtremes:
    """Extremes of gap / log(p) over prime starts p <= limit, with witnesses."""
    if limit < 11:
        raise ValueError("limit must be at least 11")
    return scan(2, limit + 1, _GapExtremes(limit), cfg).stats


class _GapHunt(_GapKernel):
    """First prime whose successor sits gap away; payload "carry" or "found"."""

    NONE = None

    def __init__(self, gap: int, stop: int):
        super().__init__(stop)
        self.task_id = f"gap_hunt({gap})@{stop}"
        self.gap = gap

    def stats(self, starts: np.ndarray, gaps: np.ndarray) -> int | None:
        hit = np.flatnonzero(gaps == self.gap)
        return int(starts[hit[0]]) if len(hit) else None

    def join(self, a: int | None, b: int | None) -> int | None:
        return a if a is not None else b

    def done(self, state: _GapCarry) -> bool:
        return state.stats is not None

    def floor(self, stats: int | None) -> int:
        return max(self.gap // 2, 1)

    def dump(self, state: _GapCarry) -> dict:
        if state.stats is not None:
            return {"found": str(state.stats)}
        return {"carry": None if state.last is None else str(state.last)}

    def load(self, payload: dict, range_done: int) -> _GapCarry:
        if payload.get("found"):
            return _GapCarry(None, None, int(payload["found"]))
        carry = payload.get("carry")
        return _GapCarry(None, None if carry is None else int(carry), None)


def hunt_gap(gap: int, stop: int, *, start: int = 2,
             cfg: Config | None = None,
             checkpoint_path: str | None = None,
             checkpoint_stride: int = 1 << 30) -> GapRecord | None:
    """Search [start, stop] for the first prime whose successor sits gap away.

    Resumable: with checkpoint_path the scan persists its position and the
    last prime carried over the boundary, and picks up from there.
    """
    if gap != 1 and gap % 2:
        raise ValueError("a prime gap above 1 must be even")
    if stop < start:
        raise ValueError("stop must be >= start")
    state = scan(max(2, start - start % 2), stop + 1, _GapHunt(gap, stop),
                 cfg, checkpoint_path, checkpoint_stride)
    return (None if state.stats is None
            else GapRecord(state.stats, gap, "first_occurrence"))
