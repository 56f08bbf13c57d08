"""Segmented prime sieve, 64-bit primality, and factorization.

The segment layout is odds-only: bit i of a segment starting at even lo
corresponds to the odd number lo + 1 + 2i.  Stepping an odd prime p
through consecutive odd multiples advances the value by 2p, which is a
stride of exactly p in index space.  Base primes below a threshold set
by the segment's length cross off with one numpy slice assignment each;
the larger ones hit the segment only a few times each, so they cross off
together, one vectorised pass per hit (after Oliveira e Silva, Herzog
and Pardi, Math. Comp. 83 (2014), who treat large sieving primes apart
from small ones).  The prime 2 never appears in a bit array; iterators
inject it when a range covers it.

The kernel computes in int64.  Every value it forms stays below hi plus
the largest base prime it uses, so a window [lo, hi) is accepted only
while that sum is below 2**63 (see check_window).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .config import Config

# Deterministic Miller-Rabin witness set: the first twelve primes decide
# primality for every n < 3.1e23, which covers the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k, the least strong pseudoprime to all of the first k prime bases
# (Pomerance, Selfridge and Wagstaff 1980; Jaeschke, Math. Comp. 61
# (1993); Zhang and Tang 2003; Sorenson and Webster 2017): an n < psi_k
# that passes the first k bases is prime.
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461)

# fill_segment's int64 domain: hi plus the largest base prime a window
# uses must stay below this.
INT64_BOUND = 1 << 63

_TRIAL_LIMIT = 10**4


def _odd_count(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi) for even lo."""
    first = lo + 1
    if first >= hi:
        return 0
    return (hi - 1 - first) // 2 + 1


@dataclass(frozen=True)
class PrimeSegment:
    """Primality bits for the odd numbers in [lo, hi), lo even."""

    lo: int
    hi: int
    bits: np.ndarray

    def __post_init__(self):
        if self.lo % 2 != 0:
            raise ValueError("segment lo must be even")
        if not (2 <= self.lo < self.hi):
            raise ValueError("need 2 <= lo < hi")
        if len(self.bits) != _odd_count(self.lo, self.hi):
            raise ValueError("bit array does not match range")

    @property
    def contains_two(self) -> bool:
        return self.lo <= 2 < self.hi

    def count(self) -> int:
        return int(self.bits.sum()) + (1 if self.contains_two else 0)

    def values(self) -> np.ndarray:
        """Primes in [lo, hi) as an int64 array."""
        odds = self.lo + 1 + 2 * np.flatnonzero(self.bits).astype(np.int64)
        if self.contains_two:
            return np.concatenate(([2], odds))
        return odds

    def primes(self) -> Iterator[int]:
        for v in self.values():
            yield int(v)


_small_prime_cache: dict[int, np.ndarray] = {}


def small_primes(bound: int) -> np.ndarray:
    """Dense sieve of primes <= bound, cached (read-only int64 array).

    One table is kept; a smaller bound gets a prefix view of it.
    """
    for b, arr in _small_prime_cache.items():
        if b >= bound:
            return arr[:np.searchsorted(arr, bound, side="right")]
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    arr = np.flatnonzero(flags).astype(np.int64)
    arr.setflags(write=False)
    _small_prime_cache.clear()
    _small_prime_cache[bound] = arr
    return arr


def check_window(hi: int) -> None:
    """Raise ValueError unless windows ending at hi fit the int64 kernel.

    A window below hi sieves with base primes up to isqrt(hi - 1), and
    hi plus that prime must stay below INT64_BOUND.
    """
    if hi + isqrt(max(hi - 1, 0)) >= INT64_BOUND:
        raise ValueError(
            f"window end {hi} is outside the sieve's int64 domain: "
            "hi + isqrt(hi - 1) must stay below 2**63")


def fill_segment(lo: int, hi: int, base_primes: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Mark primality of odds in [lo, hi) into a bool array.

    base_primes must be ascending and contain every prime <=
    isqrt(hi - 1), and hi must pass check_window.  `out` may be a
    reusable buffer at least as long as the segment; the returned array
    is then a view into it, valid until the next fill.

    Each odd base prime p crosses off its odd multiples from max(p*p,
    lo + 1) on.  Primes below max(64, n // 64), for a segment of n odds,
    hit it about n / p >= 64 times and cross off with one slice each.
    The rest cross off together: every pass clears one multiple of each
    remaining prime, then drops the primes that have left the segment.
    """
    if lo % 2 != 0 or lo < 2:
        raise ValueError("segment lo must be even and >= 2")
    check_window(hi)
    n = _odd_count(lo, hi)
    if out is None:
        bits = np.ones(n, dtype=bool)
    else:
        bits = out[:n]
        bits[:] = True
    if n == 0:
        return bits
    top = isqrt(hi - 1)
    ps = base_primes[np.searchsorted(base_primes, 3):
                     np.searchsorted(base_primes, top, side="right")]
    last = int(base_primes[-1]) if len(base_primes) else 1
    # a table may end below top at the largest prime <= top; one that
    # does is short unless it holds every odd prime <= top
    if top >= 3 and last < top and len(ps) < len(small_primes(top)) - 1:
        raise ValueError("base prime table too small for segment")
    # index of each prime's first odd multiple >= max(p*p, lo + 1): the
    # first multiple >= lo + 1 sits d = -(lo + 1) mod p past it, and the
    # next one after it when d is odd
    starts = np.remainder(-(lo + 1), ps)
    starts += (starts & 1) * ps
    starts >>= 1
    j = int(np.searchsorted(ps, isqrt(lo) + 1))  # primes with p*p > lo
    tail = ps[j:]
    np.maximum(starts[j:], (tail * tail - (lo + 1)) >> 1, out=starts[j:])
    split = int(np.searchsorted(ps, max(64, n // 64)))
    for i, p in zip(starts[:split].tolist(), ps[:split].tolist()):
        if i < n:
            bits[i::p] = False
    keep = starts[split:] < n
    bi = starts[split:][keep]
    bp = ps[split:][keep]
    del starts, keep
    while len(bi):
        bits[bi] = False
        bi += bp
        keep = bi < n
        bi = bi[keep]
        bp = bp[keep]
    return bits


class Walk:
    """The serial segment walk under every segmented scan up to top.

    The window check and base table are built once, so shards on several
    threads share them.  segments(lo, hi), lo even, yields (seg_lo,
    seg_hi, bits) tiling [lo, hi); bits marks the odds of [seg_lo,
    seg_hi + reach) in a buffer reused by the next step.
    """

    def __init__(self, top: int, cfg: Config, reach: int = 0):
        check_window(top + reach)
        self.span = 2 * cfg.segment_odds
        self.reach = reach
        self.base = small_primes(max(isqrt(top + reach - 1), 3))

    def segments(self, lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
        buf = np.empty(self.span // 2 + (self.reach >> 1) + 1, dtype=bool)
        for seg_lo in range(lo, hi, self.span):
            seg_hi = min(seg_lo + self.span, hi)
            yield seg_lo, seg_hi, fill_segment(seg_lo, seg_hi + self.reach,
                                               self.base, out=buf)


def iter_segments(limit: int, cfg: Config | None = None) -> Iterator[PrimeSegment]:
    """Tile [2, limit] with non-overlapping segments.

    Each yielded segment owns its bits (no shared buffers), so callers
    may hold on to segments after advancing the iterator.
    """
    if limit < 2:
        return
    walk = Walk(limit + 1, cfg or Config())
    for lo, hi, bits in walk.segments(2, limit + 1):
        yield PrimeSegment(lo, hi, bits.copy())


def iter_primes(limit: int, cfg: Config | None = None) -> Iterator[int]:
    """Yield every prime <= limit in increasing order."""
    for seg in iter_segments(limit, cfg):
        yield from seg.primes()


def primes_array(limit: int, cfg: Config | None = None) -> np.ndarray:
    """All primes <= limit as one int64 array (memory scales with pi(limit))."""
    chunks = [seg.values() for seg in iter_segments(limit, cfg)]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def odd_prime_flags(limit: int) -> np.ndarray:
    """Bool array f where f[i] marks 2i+1 prime, covering odds <= limit.

    Dense variant used by the Goldbach counters; costs limit/2 bytes.
    """
    n = (limit + 1) // 2
    flags = np.ones(n, dtype=bool)
    flags[0] = False  # 1 is not prime
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[p >> 1]:
            flags[(p * p) >> 1 :: p] = False
    return flags


def is_prime_64(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Trial division by the twelve witness primes, then strong tests to
    those bases in order, stopping after base k once n < psi_k.
    """
    if n < 0 or n >= 1 << 64:
        raise ValueError("argument outside 64-bit range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True  # no factor <= 37, below 41**2: prime
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        if not _strong_test(n, a, d, s):
            return False
        if n < psi:
            return True
    return True  # not reached: psi_12 exceeds 2**64


def _strong_test(N: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, N)
    if x == 1 or x == N - 1:
        return True
    for _ in range(s - 1):
        x = x * x % N
        if x == N - 1:
            return True
    return False


def prp_test(N: int, rounds: int = 10) -> bool:
    """Strong probable-prime test: base 2 plus `rounds` pseudorandom bases.

    Composite verdicts are certain; prime verdicts have error probability
    at most 4**(-rounds-1).  Bases come from a generator seeded by N, so
    verdicts are reproducible run to run.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("prp_test needs odd N >= 3")
    if N == 3:
        return True
    d = N - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if not _strong_test(N, 2, d, s):
        return False
    rng = random.Random(N)
    for _ in range(max(0, rounds)):
        a = rng.randrange(2, N - 1)
        if not _strong_test(N, a, d, s):
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of a 64-bit integer."""

    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError("factor product mismatch")

    @property
    def big_omega(self) -> int:
        """Omega(n): prime factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    @property
    def small_omega(self) -> int:
        """omega(n): distinct prime factors."""
        return len(self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def _brent_rho(n: int) -> int:
    """Nontrivial factor of odd composite n with no factor <= 10**4.

    Brent's cycle-finding variant of Pollard rho with batched gcds and a
    deterministic polynomial schedule x**2 + c for c = 1, 2, 3, ...
    """
    for c in range(1, 64):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # batch overshot: replay from the saved point one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable below 2**64


def factorize_64(n: int) -> Factorization:
    """Deterministic complete factorization for 1 <= n < 2**64."""
    if n < 1 or n >= 1 << 64:
        raise ValueError("argument outside [1, 2**64)")
    if n == 1:
        return Factorization(1, ())
    counts: dict[int, int] = {}
    m = n
    for p in small_primes(_TRIAL_LIMIT):
        p = int(p)
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_64(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(counts.items())))


def composite_run(n: int, allow_big: bool = False) -> list[int]:
    """The n consecutive composites (n+1)!+2 .. (n+1)!+(n+1).

    n <= 20 keeps every element inside 64 bits; larger n needs
    allow_big=True and returns arbitrary-precision integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 20 and not allow_big:
        raise ValueError("n > 20 leaves the 64-bit fast path; pass allow_big=True")
    f = math.factorial(n + 1)
    run = [f + k for k in range(2, n + 2)]
    for k, value in zip(range(2, n + 2), run):
        if value % k != 0:  # k divides (n+1)! by construction
            raise AssertionError("composite witness failed")
    return run
