"""Segmented prime sieve, 64-bit primality, and factorization.

The segment layout is odds-only: bit i of a segment starting at even lo
corresponds to the odd number lo + 1 + 2i.  Stepping an odd prime p
through consecutive odd multiples advances the value by 2p, which is a
stride of exactly p in index space.  fill_segment sieves base primes in
four tiers, after Oliveira e Silva, Herzog and Pardi, Math. Comp. 83
(2014), who pre-sieve the smallest primes and sieve small, medium and
large primes by separate methods:

- the wheel primes 3 .. 17 are not sieved one by one: a segment starts
  as a copy of a read-only pattern of their odd multiples, whose period
  is 3*5*7*11*13*17 = 255255 odds, and each wheel prime inside it is set
  back;
- small primes (above 17, below BLOCK // 64) cross off with one numpy
  slice per prime and per cache block of BLOCK odds, so each block stays
  in cache while every small prime passes over it;
- medium primes (below max(64, n // 64) for a segment of n odds) hit
  the segment at least 64 times, and cross off with one slice each;
- large primes hit it fewer than 64 times each, so they cross off
  together, one vectorised pass per hit.

The prime 2 never appears in a bit array; prime_values puts it first
for a segment that starts at 2.

fill_segment is the only code that crosses off multiples, and its one
caller is Walk.segments, which tiles every segmented walk: scan(), the
lazy _prime_arrays, the base table small_primes (a Walk of BLOCK-odd
segments whose own base primes come from small_primes), and the
bit-packed odd_prime_words table, a walk from 0 whose bit 0 is the odd
1.  The dense odd_prime_flags table unpacks those words.  The m*m + 1
census in census.py takes its large moduli from _large_hits, the large
tier's routine.

Memory does not grow with the base table beyond the table itself:
small_primes(B) holds its primes as uint32, four bytes each, and one
block's flags and primes while it is built, and fill_segment works
through the large primes _LARGE_CHUNK at a time, so its temporaries are
one chunk's, however many base primes a segment reads.

The kernel computes in int64.  Every value it forms stays below hi plus
the largest base prime it uses, so a window [lo, hi) is accepted only
while that sum is below 2**63 (see check_window); its base primes are
then below isqrt(2**63) < 3.04e9, inside the table's uint32 range.  The
table is never widened whole: fill_segment widens the primes of one
tier or one chunk to int64 as it reads them, because p*p wraps in uint32
once p > 65535, and every search of it takes a needle of its own dtype
(_rank).
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Sequence

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

# small_primes holds its table as uint32, so its bound must stay below
# this.  The base primes of every window that check_window accepts do.
TABLE_BOUND = 1 << 32

_TRIAL_LIMIT = 10**4

# fill_segment's cache block, in odds: 1 MiB of flags, which fits a
# core's L2 cache beside the base primes.  Primes below BLOCK // 64 hit a
# block at least 64 times and are crossed off block by block.
BLOCK = 1 << 20

# fill_segment takes its large primes this many at a time: their first
# hits and the passes over them then need a few arrays of one chunk, not
# of every base prime (17M of them at 1e17).
_LARGE_CHUNK = 1 << 16

# The slice loops assign this 0-d array, not the scalar False: numpy then
# skips converting a Python scalar, which halves the cost of a short slice.
_FALSE = np.zeros((), dtype=bool)

# The wheel primes, whose multiples fill_segment copies from one pattern.
_WHEEL = (3, 5, 7, 11, 13, 17)
_WHEEL_PERIOD = math.prod(_WHEEL)  # in odd indices


@functools.cache
def _wheel_pattern() -> np.ndarray:
    """Read-only flags of odd index g (the odd 2g + 1) for g < 2 periods:
    True when 2g + 1 has no wheel prime factor.  Built on first use."""
    flags = np.ones(2 * _WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL:
        flags[p >> 1::p] = False  # 2g + 1 = p (mod 2p)
    flags.setflags(write=False)
    return flags


def _odd_count(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi) for even lo."""
    first = lo + 1
    if first >= hi:
        return 0
    return (hi - 1 - first) // 2 + 1


# The kernels AND shifted flags in chunks of this many odds: a chunk's
# temporary is reused from the thread's heap, where a segment-long one
# per segment would grow the process's resident memory.
_AND_CHUNK = 1 << 16


def instance_chunks(bits: np.ndarray, m: int,
                    shifts: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (i, flags) over [0, m) in order: flags[k] is True when bits[i
    + k + s] is for s = 0 and every shift (a view of bits if none)."""
    for i in range(0, m, _AND_CHUNK):
        j = min(i + _AND_CHUNK, m)
        flags = bits[i:j]
        for k, s in enumerate(shifts):
            if k:
                flags &= bits[i + s:j + s]
            else:
                flags = flags & bits[i + s:j + s]
        yield i, flags


def _rank(table: np.ndarray, x: int, side: str = "left") -> int:
    """np.searchsorted(table, x, side) for an int 0 <= x that fits the
    table's dtype.  The needle takes that dtype: a Python int needle
    makes numpy convert a whole uint32 table to int64 first."""
    return int(np.searchsorted(table, table.dtype.type(x), side=side))


def prime_values(lo: int, bits: np.ndarray) -> np.ndarray:
    """Primes marked by bits, a segment from even lo, as an int64 array;
    2 leads when lo is 2, as no bit array holds it."""
    odds = np.flatnonzero(bits).astype(np.int64, copy=False)
    odds *= 2
    odds += lo + 1
    return np.concatenate(([2], odds)) if lo == 2 else odds


_small_prime_cache: dict[int, np.ndarray] = {}


def _pi_upper(x: int) -> int:
    """An upper bound on pi(x) for x >= 2: pi(x) < 1.25506 x / ln x for
    x > 1 (Rosser and Schoenfeld, Illinois J. Math. 6 (1962), Cor. 1)."""
    return int(1.25506 * x / math.log(x)) + 1


def small_primes(bound: int) -> np.ndarray:
    """Primes <= bound, cached (read-only uint32 array); bound < 2**32.

    A bound of TABLE_BOUND or more raises ValueError before anything is
    allocated.  Readers of the values convert them to Python ints, or
    widen a chunk-sized copy to int64 before arithmetic: in uint32, p*p
    wraps once p > 65535, and a Python int operand that does not fit
    raises OverflowError.  A search of the table takes a needle of its
    dtype (_rank).

    Built a block at a time: a Walk of BLOCK-odd segments over [2, bound]
    marks each block's odds, with base primes up to isqrt(bound) from this
    function, and each block's primes go straight into one uint32 table
    sized by _pi_upper(bound) after the 2 in its first slot.  The filled
    prefix is returned; the tail past it is never written, so its pages
    never become resident.  One table is kept; a smaller bound gets a
    prefix view of it.
    """
    if bound >= TABLE_BOUND:
        raise ValueError(
            f"prime table bound {bound} is outside its uint32 domain: "
            "it must stay below 2**32")
    for b, arr in _small_prime_cache.items():
        if b >= bound:
            return arr[:_rank(arr, max(bound, 0), side="right")]
    if bound < 2:
        arr = np.empty(0, dtype=np.uint32)
    else:
        table = np.empty(_pi_upper(bound), dtype=np.uint32)
        table[0] = 2
        k = 1
        walk = Walk(bound + 1, Config(segment_bytes=BLOCK))
        for lo, _, bits in walk.segments(2, bound + 1):
            odds = np.flatnonzero(bits)
            vals = table[k:k + len(odds)]
            np.multiply(odds, 2, out=vals, casting="unsafe")  # < bound
            vals += lo + 1
            k += len(odds)
            del odds  # freed before the next block's primes are found
        arr = table[:k]
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

    lo must be even and >= 0; from lo = 0, bit 0 is the odd 1, which is
    not prime.  base_primes must be ascending and contain every prime <=
    isqrt(hi - 1), and hi must pass check_window.  `out` may be a
    reusable buffer at least as long as the segment; the returned array
    is then a view into it, valid until the next fill.

    The segment starts as a copy of the wheel pattern, which crosses off
    every odd multiple of 3 .. 17, with each wheel prime inside it set
    back.  Every larger odd base prime p crosses off its odd multiples from
    max(p*p, lo + 1) on, by one of three methods for a segment of n odds:

    - p < BLOCK // 64 (and below the next cut-off): one slice per prime
      and per cache-sized block of BLOCK odds, block by block;
    - p < max(64, n // 64): one slice per prime over the whole segment;
    - larger p hit the segment fewer than 64 times each, and cross off
      together, _LARGE_CHUNK primes at a time, one vectorised pass per
      hit (_large_hits).
    """
    if lo % 2 != 0 or lo < 0:
        raise ValueError("segment lo must be even and >= 0")
    check_window(hi)
    n = _odd_count(lo, hi)
    if out is not None and len(out) < n:
        raise ValueError("out is shorter than the segment")
    # a spare slot at index n takes the large primes' misses; an out
    # with no room for it gets the bits copied in at the end
    if out is not None and len(out) > n:
        buf = out[:n + 1]
    else:
        buf = np.empty(n + 1, dtype=bool)
    bits = buf[:n]
    if n == 0:
        return bits if out is None else out[:0]
    top = isqrt(hi - 1)
    ps = base_primes[_rank(base_primes, 3):
                     _rank(base_primes, top, side="right")]
    last = int(base_primes[-1]) if len(base_primes) else 1
    # a table may end below top at the largest prime <= top; one that
    # does is short unless it holds every odd prime <= top
    if top >= 3 and last < top and len(ps) < len(small_primes(top)) - 1:
        raise ValueError("base prime table too small for segment")
    # odd index lo // 2 + i is bit i, so the pattern repeats from one offset
    wheel = _wheel_pattern()
    off = (lo >> 1) % _WHEEL_PERIOD
    for s in range(0, n, _WHEEL_PERIOD):
        m = min(_WHEEL_PERIOD, n - s)
        bits[s:s + m] = wheel[off:off + m]
    for p in _WHEEL:
        if lo < p < hi:
            bits[(p - lo - 1) >> 1] = True
    if lo == 0:
        bits[0] = False  # the odd 1, which has no wheel factor
    ps = ps[_rank(ps, _WHEEL[-1], side="right"):]
    j = _rank(ps, isqrt(lo) + 1)  # primes with p*p > lo
    split = _rank(ps, max(64, n // 64))
    blocked = _rank(ps[:split], BLOCK // 64)
    # the table's uint32 is widened to int64 as it is read, the small and
    # medium primes at once and the large ones a chunk at a time
    # (_cross_large): p*p wraps in uint32, and mixed uint32 and int64
    # operands would send every pass through numpy's slower casting loops
    small = ps[:split].astype(np.int64)
    starts = _first_hits(lo, small, j)
    bs, bp = starts[:blocked], small[:blocked]
    for b0 in range(0, n, BLOCK):
        b1 = min(b0 + BLOCK, n)
        for i, p in zip(bs.tolist(), bp.tolist()):
            if i < b1:
                bits[i:b1:p] = _FALSE
        # each prime's first multiple at or past b1
        bs = np.maximum(bs, b1 + np.remainder(bs - b1, bp))
    for i, p in zip(starts[blocked:].tolist(), small[blocked:].tolist()):
        if i < n:
            bits[i::p] = _FALSE
    for c in range(split, len(ps), _LARGE_CHUNK):
        _cross_large(buf, lo, ps[c:c + _LARGE_CHUNK], n, max(j - c, 0))
    if out is not None and len(out) == n:
        out[:] = bits
        return out
    return bits


def _cross_large(buf: np.ndarray, lo: int, ps: np.ndarray, n: int,
                 m: int) -> None:
    """Cross off in buf, n odds from even lo and a spare slot, the hits
    of one chunk of large primes ps, the first m with p*p <= lo.  The
    chunk is widened to int64 here, and its arrays are freed on return,
    before the next chunk's are made."""
    wide = ps.astype(np.int64)
    for idx, _ in _large_hits(_first_hits(lo, wide, m), wide, n, m):
        buf[idx] = False


def _first_hits(lo: int, ps: np.ndarray, j: int) -> np.ndarray:
    """Index of each odd prime's first odd multiple >= max(p*p, lo + 1)
    in the segment from even lo, as a fresh int64 array; the first j of
    the ascending ps have p*p <= lo.  The odd multiples of p have odd
    indices (p - 1)/2 (mod p), and bit i is odd index lo/2 + i.  ps is
    int64, as p*p wraps in uint32."""
    starts = (ps >> 1) - (lo >> 1)
    np.remainder(starts, ps, out=starts)
    tail = ps[j:]
    np.maximum(starts[j:], (tail * tail - (lo + 1)) >> 1, out=starts[j:])
    return starts


def _large_hits(starts: np.ndarray, ps: np.ndarray, n: int,
                m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (indices, moduli), one pair per pass, for ascending moduli
    ps that hit [0, n) fewer than 64 times each from starts on.

    The first m start below their modulus (for a prime, p*p <= lo), so
    pass k hits starts + k*p: surely below n once (k + 1) * p <= n, and
    surely not once k * p >= n.  Pass k therefore runs over the prefix
    of them with k * p < n (one searchsorted for every pass), in place,
    and sends a multiple past the end to index n, a spare slot the
    caller must hold.  The rest, whose first hit may lie anywhere, drop
    out as they leave, so with m = 0 no index reaches n.  The arrays are
    updated in place after the caller has used them.  Both are int64.
    """
    if m:
        bi, bp = starts[:m], ps[:m]
        np.minimum(bi, n, out=bi)
        passes = np.arange(1, n // int(bp[0]) + 1)
        cuts = [m] + np.searchsorted(bp, (n - 1) // passes,
                                     side="right").tolist() + [0]
        for e, e_next in zip(cuts, cuts[1:]):
            yield bi[:e], bp[:e]
            sub = bi[:e_next]  # only the moduli the next pass reads
            sub += bp[:e_next]
            np.minimum(sub, n, out=sub)
    keep = starts[m:] < n
    bi, bp = starts[m:][keep], ps[m:][keep]
    while len(bi):
        yield bi, bp
        bi += bp
        keep = bi < n
        bi = bi[keep]
        bp = bp[keep]


class Walk:
    """The serial segment walk under every segmented scan up to top:
    scan(), _prime_arrays, small_primes and odd_prime_words tile their
    ranges with it.

    Segments are cfg's size (Config() when cfg is None).  The window
    check and base table, small_primes(isqrt(top + reach - 1)), are built
    once, so segments on several threads share them.  segments(lo, hi),
    lo even, yields (seg_lo, seg_hi, bits) tiling [lo, hi); bits marks
    the odds of [seg_lo, seg_hi + reach) in a buffer reused by the next
    step.  A walk holds its buffer until it is finished or closed, then
    leaves it for the next one, so concurrent walks (one per thread) hold
    one buffer each.  scan() walks one segment per task, so a buffer's
    pages are touched, and so resident, as far as the longest segment it
    served: a whole segment once the range is that long.
    """

    def __init__(self, top: int, cfg: Config | None = None, reach: int = 0):
        check_window(top + reach)
        self.span = 2 * (cfg or Config()).segment_odds
        self.reach = reach
        # a buffer for the longest segment below top, with its lookahead
        self._odds = min(self.span, top) // 2 + (reach >> 1) + 1
        self.base = small_primes(isqrt(top + reach - 1))
        self._spare: list[np.ndarray] = []  # list.pop and append are atomic

    def segments(self, lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
        try:
            buf = self._spare.pop()
        except IndexError:
            buf = np.empty(self._odds, dtype=bool)
        try:
            for seg_lo in range(lo, hi, self.span):
                seg_hi = min(seg_lo + self.span, hi)
                yield seg_lo, seg_hi, fill_segment(
                    seg_lo, seg_hi + self.reach, self.base, out=buf)
        finally:
            self._spare.append(buf)


def _prime_arrays(limit: int, cfg: Config | None) -> Iterator[np.ndarray]:
    """The primes <= limit, one int64 array per _AND_CHUNK odds of a
    segment, so a reader holds the walk's buffer and one chunk's primes,
    however many primes there are."""
    if limit < 2:
        return
    walk = Walk(limit + 1, cfg)
    for lo, _, bits in walk.segments(2, limit + 1):
        # at limit 2 the one segment holds no odds, but its first chunk
        # still carries the 2
        for i in range(0, max(len(bits), 1), _AND_CHUNK):
            yield prime_values(lo + 2 * i, bits[i:i + _AND_CHUNK])


def iter_primes(limit: int, cfg: Config | None = None) -> Iterator[int]:
    """Yield every prime <= limit in increasing order."""
    for ps in _prime_arrays(limit, cfg):
        yield from ps.tolist()


def primes_array(limit: int, cfg: Config | None = None) -> np.ndarray:
    """All primes <= limit as one int64 array (memory scales with pi(limit))."""
    chunks = list(_prime_arrays(limit, cfg))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def odd_prime_flags(limit: int) -> np.ndarray:
    """Bool array f where f[i] marks 2i+1 prime, covering odds <= limit.

    A byte per odd, limit/2 bytes in all, read by the census of twin
    almost-primes: odd_prime_words(limit) unpacked into a fresh,
    writable array.
    """
    words = odd_prime_words(limit).view(np.uint8)
    n = (limit + 1) // 2
    return np.unpackbits(words, count=n, bitorder="little").view(bool)


def odd_prime_words(limit: int) -> np.ndarray:
    """Prime bits of the odds <= limit, one bit per odd, packed into
    little-endian 64-bit words: bit i & 63 of word i >> 6 marks 2i + 1
    prime.  Bit 0 (the odd 1) and the bits past the last odd are 0.

    Built by a walk of BLOCK-odd segments from 0, whose bit 0 is the odd
    1: np.packbits packs each block's bits into the words, so the table
    costs limit/16 bytes plus one block's flags (1 MiB) and that block
    packed (128 KiB) while it is built, at every limit.
    """
    n = (limit + 1) // 2
    words = np.zeros(-(-n // 64), dtype="<u8")
    out = words.view(np.uint8)
    walk = Walk(limit + 1, Config(segment_bytes=BLOCK))
    for lo, _, bits in walk.segments(0, limit + 1):
        # lo >> 4 is a whole byte: a block holds a multiple of 8 odds
        packed = np.packbits(bits, bitorder="little")
        out[lo >> 4:(lo >> 4) + packed.size] = packed
    return words


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
    for p in small_primes(_TRIAL_LIMIT).tolist():
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
