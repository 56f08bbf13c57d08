"""Two-prime decompositions of even numbers, at desk scale.

Every reader here reads one table of prime bits, one bit per odd: bit i
& 63 of little-endian 64-bit word i >> 6 marks 2i + 1 prime.

Verification works by elimination (the least-p method of Oliveira e
Silva, Herzog and Pardi, Math. Comp. 83 (2014), who also sieve
bit-packed windows): each block of 2**21 evens starts unrepresented,
and ascending odd primes q knock out the n for which n - q is prime.

For one q those n - q are consecutive odds, so the dense steps work on
packed words.  The block's survivors are one bit per even in
little-endian 64-bit words, the last word masked to the block.  The
window of the table that the primes q < 2**14 read for the block is a
slice of its words, inverted to composite bits and padded with all-ones
guard words, so an n - q below 3 or past the table reads "not prime".
A step is then one funnel shift of that window (two shifts and an OR,
or none when the offset is a whole word) and one in-place AND over the
block's 2**15 words.  Every 8 primes the nonzero words are counted;
once at most 1/64 of them is left, or q's offset leaves the window, the
survivors are read word by word (only nonzero words are unpacked) and
each later q gathers only their bits.  Anything that survives the small
primes gets an exhaustive check, every odd p <= n/2 against n - p,
before it may be called a violation.

Memory: a full block holds four arrays of 256 KiB (the inverted window,
the survivor words and two shift buffers), made for that block and
dropped after it.  The table is the only array the process keeps: it
holds (limit + 1) / 16 bytes for the largest limit asked for so far, is
read-only, and is rebuilt only when a larger limit is asked for.  It is
built a segment at a time (sieve.odd_prime_words), which costs one
segment's bool buffer on top while it lasts.

Representation counts are computed two independent ways (per-prime
lookup and a complement scan) so the printed numbers never rest on a
single code path.  Both, and the exhaustive check, unpack the table
2**20 bits at a time, so their temporaries do not grow with n.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import MathViolationError
from .sieve import is_prime_64, odd_prime_words, small_primes

__all__ = [
    "verify_goldbach",
    "count_representations",
    "count_by_prime_lookup",
    "count_by_complement_scan",
    "representation_report",
    "euler_variant_check",
    "euler_variant_witness",
    "three_primes",
    "exceptional_count",
    "ExceptionalCount",
    "chen_comparison",
]

_BLOCK = 1 << 22
# the dense steps use the odd primes below _DENSE_Q, read from one
# window of the table per block
_DENSE_Q = 1 << 14
# the dense steps end once at most 1/_SPARSE of a block's words holds a
# survivor, counted every 8 primes
_SPARSE = 64
# 64 bits to a word; bit b of word w is bit 64w + b of the table
_WORD = np.dtype("<u8")
_ONES = np.iinfo(np.uint64).max
# the counters and the exhaustive check unpack this many bits at a time
_CHUNK = 1 << 20
# euler_variant_check takes this many n = 2 (mod 4) at a time
_EULER_WINDOW = 1 << 17

# the table this process keeps, as (odds it covers, words); see _prime_words
_table: tuple[int, np.ndarray] | None = None


def _check_even(n: int, name: str = "n") -> None:
    if n < 4 or n % 2:
        raise ValueError(f"{name} must be an even integer >= 4")


def _prime_words(limit: int) -> np.ndarray:
    """odd_prime_words(limit) as a read-only prefix view of the one table
    this process keeps, built afresh only for a larger limit.

    The view's last word may hold bits of the odds past limit, which
    every reader leaves unread.
    """
    global _table
    n = (limit + 1) // 2
    if _table is None or _table[0] < n:
        words = odd_prime_words(limit)
        words.setflags(write=False)
        _table = (n, words)
    return _table[1][:-(-n // 64)]


def _bits(words: np.ndarray, s: int, e: int) -> np.ndarray:
    """Bits s .. e - 1 of the table (0 <= s <= e) as a bool array."""
    b = s >> 3
    raw = np.unpackbits(words.view(np.uint8)[b:(e + 7) >> 3],
                        bitorder="little")
    return raw[s - 8 * b:e - 8 * b].view(bool)


def _bits_reversed(words: np.ndarray, s: int, e: int) -> np.ndarray:
    """Bits e - 1 down to s of the table (0 <= s <= e) as a bool array:
    the bytes in reverse order, each unpacked from its high bit."""
    top = (e + 7) >> 3
    raw = np.unpackbits(words.view(np.uint8)[s >> 3:top][::-1],
                        bitorder="big")
    return raw[8 * top - e:8 * top - s].view(bool)


def _gather(words: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Bits i (an int64 array, each >= 0) of the table, as 0 or 1: bit
    i & 63 of word i >> 6 is bit i & 7 of its byte i >> 3."""
    return (words.view(np.uint8)[i >> 3] >> (i & 7).astype(np.uint8)) & 1


def _both_prime(words: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """For even n, bools over the odd p from 3 to n/2, ascending, a chunk
    at a time: True where the table marks p and n - p prime."""
    half = n // 2
    end = (half + 1) // 2  # p = 2j + 1 <= n/2 for j < end
    for a in range(1, end, _CHUNK):
        b = min(a + _CHUNK, end)
        # n - p for j in [a, b) is bit half - 1 - j, descending
        yield _bits(words, a, b) & _bits_reversed(words, half - b, half - a)


def _odd_rep_exists_slow(n: int, words: np.ndarray) -> bool:
    """Exhaustive check for one n, every odd p <= n/2 against n - p;
    the last word before declaring a violation."""
    return any(both.any() for both in _both_prime(words, n))


def _packed_composites(words: np.ndarray, lo: int, count: int) -> np.ndarray:
    """count words whose bit t is 0 exactly when bit lo + t of the table
    marks a prime.

    lo is a multiple of 64 and may be negative: words outside the table
    read as composite, so all-ones guard words stand in for them.
    """
    w0 = lo >> 6
    comp = np.full(count, _ONES, dtype=_WORD)
    a, b = max(w0, 0), min(w0 + count, words.size)
    if a < b:
        np.invert(words[a:b], out=comp[a - w0:b - w0])
    return comp


def _dense_survivors(words: np.ndarray, qs: list[int], blo: int,
                     m: int) -> tuple[np.ndarray, int]:
    """(i, j): the i, ascending, for which no prime in qs[:j] knocks out
    the even blo + 2i, i < m, with j where the dense steps stopped."""
    nw = -(-m // 64)
    top = (blo - 4) >> 1  # q = 3 reads the bits from here on
    lo = ((blo - _DENSE_Q) >> 1) // 64 * 64
    comp = _packed_composites(words, lo, (top - lo) // 64 + nw + 1)
    # bit i of rem: blo + 2i has no representation found yet
    rem = np.full(nw, _ONES, dtype=_WORD)
    if m % 64:
        rem[-1] = (1 << m % 64) - 1
    lo_bits, hi_bits = np.empty_like(rem), np.empty_like(rem)
    j = 0
    while j < len(qs) and (j % 8 or np.count_nonzero(rem) * _SPARSE > nw):
        # the bit of blo + 2i - q is base + i
        base = (blo - qs[j] - 1) >> 1
        if base < lo or base + m <= 1:  # outside the window, or all < 3
            break
        a, s = divmod(base - lo, 64)
        if s:
            np.right_shift(comp[a:a + nw], s, out=lo_bits)
            np.left_shift(comp[a + 1:a + nw + 1], 64 - s, out=hi_bits)
            lo_bits |= hi_bits
            rem &= lo_bits
        else:
            rem &= comp[a:a + nw]
        j += 1
    nz = np.flatnonzero(rem)
    bits = np.flatnonzero(np.unpackbits(rem[nz].view(np.uint8),
                                        bitorder="little"))
    return 64 * nz[bits >> 6] + (bits & 63), j


def _scan_evens(lo: int, hi: int, *, first_only: bool) -> list[int]:
    """Evens in [lo, hi] with no two-prime decomposition, ascending."""
    words = _prime_words(hi)
    qs = small_primes(min(hi - 2, 10**6))[1:].tolist()  # the odd primes
    violations: list[int] = []
    start = max(lo, 6)  # 4 = 2 + 2 is the one even needing the prime 2
    for blo in range(start, hi + 1, _BLOCK):
        m = (min(blo + _BLOCK - 2, hi) - blo) // 2 + 1
        idx, j = _dense_survivors(words, qs, blo, m)
        vals = blo + 2 * idx
        for q in qs[j:]:
            if vals.size == 0:
                break
            sub = vals - q
            ok = sub >= 3
            if not ok.any():
                break
            hit = np.zeros(vals.shape, dtype=bool)
            hit[ok] = _gather(words, (sub[ok] - 1) >> 1)
            vals = vals[~hit]
        for n in vals.tolist():
            if not _odd_rep_exists_slow(n, words):
                violations.append(n)
                if first_only:
                    return violations
    return violations


def verify_goldbach(lo: int, hi: int) -> int | None:
    """Smallest even n in [lo, hi] with no two-prime sum, or None."""
    _check_even(lo, "lo")
    _check_even(hi, "hi")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    found = _scan_evens(lo, hi, first_only=True)
    return found[0] if found else None


class ExceptionalCount(NamedTuple):
    count: int
    ratio: float


def exceptional_count(x: int) -> ExceptionalCount:
    """How many evens 4 <= n <= x lack a two-prime sum, and that density."""
    if x < 4:
        raise ValueError("x must be at least 4")
    found = _scan_evens(4, x - (x % 2), first_only=False)
    return ExceptionalCount(len(found), len(found) / x)


# ---------------------------------------------------------------------------
# Representation counting (two independent methods).

def count_by_prime_lookup(n: int) -> int:
    """Unordered primes-only count: for each prime p <= n/2, test n - p."""
    _check_even(n)
    if n == 4:
        return 1
    words = _prime_words(n)
    half = n // 2
    end = (half + 1) // 2  # odd primes 2j + 1 <= n/2 have j < end
    count = 0
    for a in range(0, end, _CHUNK):
        js = np.flatnonzero(_bits(words, a, min(a + _CHUNK, end)))
        count += int(np.count_nonzero(_gather(words, half - 1 - a - js)))
    return count


def count_by_complement_scan(n: int) -> int:
    """Unordered primes-only count via a reversed-slice AND, a chunk at a
    time."""
    _check_even(n)
    if n == 4:
        return 1
    return sum(int(np.count_nonzero(both))
               for both in _both_prime(_prime_words(n), n))


_CONVENTIONS = ("unordered", "ordered")


def count_representations(n: int, convention: str = "unordered",
                          allow_one: bool = False) -> int:
    """Number of two-summand decompositions of even n under a convention.

    unordered counts p <= q; ordered counts tuples.  allow_one admits 1
    as a summand, after the eighteenth-century reading.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")
    _check_even(n)
    u = count_by_prime_lookup(n)
    if allow_one and is_prime_64(n - 1):
        u += 1
    if convention == "unordered":
        return u
    return 2 * u - (1 if is_prime_64(n // 2) else 0)


def representation_report(n: int) -> dict:
    """All counting conventions side by side, with the dual-method check.

    The ordered and allow-one counts follow from the unordered one as in
    count_representations.
    """
    a = count_by_prime_lookup(n)
    b = count_by_complement_scan(n)
    if a != b:
        raise MathViolationError(
            f"representation counters disagree at {n}: {a} vs {b}")
    return {
        "n": n,
        "unordered": a,
        "ordered": 2 * a - (1 if is_prime_64(n // 2) else 0),
        "unordered_allow_one": a + (1 if is_prime_64(n - 1) else 0),
        "methods_agree": True,
    }


# ---------------------------------------------------------------------------
# Variants.

def _euler_summands(words: np.ndarray, limit: int) -> Iterator[int]:
    """1, then the primes = 1 (mod 4) up to limit, ascending, read from the
    table 2**12 bits at a time."""
    yield 1
    end = (limit + 1) // 2  # bit j < end marks the odd 2j + 1 <= limit
    for a in range(0, end, 1 << 12):
        # bit a + 2t marks 2a + 4t + 1
        t = np.flatnonzero(_bits(words, a, min(a + (1 << 12), end))[::2])
        yield from (2 * a + 1 + 4 * t).tolist()


def euler_variant_check(limit: int) -> list[int]:
    """Violations of: every n = 2 (mod 4) in [6, limit] is a + b with
    a, b each 1 or a prime = 1 (mod 4).

    The n are taken _EULER_WINDOW at a time; ascending summands a knock
    out the n for which n - a is allowed, until none is left or a passes
    them all.
    """
    if limit < 6:
        raise ValueError("limit must be at least 6")
    words = _prime_words(limit)
    violations: list[int] = []
    for lo in range(6, limit + 1, 4 * _EULER_WINDOW):
        rem = np.arange(lo, min(lo + 4 * _EULER_WINDOW, limit + 1), 4)
        for a in _euler_summands(words, limit):
            if not rem.size or rem[-1] <= a:
                break
            b = rem - a  # = 1 (mod 4): b >> 1 is the bit of an odd b
            i = np.maximum(b, 1)  # b < 1 reads the bit of 1, not prime
            i >>= 1
            hit = _gather(words, i).view(bool)
            hit |= b == 1  # the unit
            rem = rem[~hit]
        violations.extend(rem.tolist())
    return violations


def euler_variant_witness(n: int) -> tuple[int, int]:
    """Smallest-a decomposition of n = 2 (mod 4) into the allowed set."""
    if n < 6 or n % 4 != 2:
        raise ValueError("n must be = 2 (mod 4) and >= 6")

    def allowed(m: int) -> bool:
        return m == 1 or (m % 4 == 1 and is_prime_64(m))

    for a in range(1, n // 2 + 1, 4):
        if allowed(a) and allowed(n - a):
            return a, n - a
    raise MathViolationError(f"no allowed decomposition for {n}")


def three_primes(n: int) -> tuple[int, int, int]:
    """(3, p, q) with p + q = n - 3, all odd primes, smallest p first."""
    if n < 9 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 9")
    m = n - 3
    cap = 10**5
    while True:
        for p in small_primes(min(m // 2, cap) + 1):
            p = int(p)
            if p == 2:
                continue
            if is_prime_64(m - p):
                return 3, p, m - p
        if cap >= m // 2:
            raise MathViolationError(f"{m} has no two odd-prime sum")
        cap *= 100


def chen_comparison(x: int, sample_n: int | None = None) -> dict:
    """Lower-bound expression and the almost-prime pair ratio at x.

    Report only: the bounds are asymptotic, so nothing here asserts them
    at a fixed x beyond the containment count(pairs within almost-prime
    relaxation) >= count(prime pairs).
    """
    if x < 10**3:
        raise ValueError("x must be at least 1000")
    from .census import count_pairs_2k, count_twin_almost_primes
    from .constants import _alpha_float, _odd_factor_product, li2

    alpha = _alpha_float()
    pi2 = count_pairs_2k(1, x).final_count
    pi12 = count_twin_almost_primes(x).final_count
    if pi12 < pi2:
        raise MathViolationError(
            "almost-prime pair count fell below the prime pair count")
    denom = 2 * alpha * li2(x)
    if sample_n is None:
        sample_n = x - (x % 2)
    ln = math.log(sample_n)
    chen_value = 0.67 * alpha * _odd_factor_product(sample_n) * sample_n / ln**2
    return {
        "x": x,
        "pi2": pi2,
        "pi12": pi12,
        "ratio_pi12_vs_2alpha_li2": pi12 / denom,
        "chen_sample_n": sample_n,
        "chen_expression_value": chen_value,
        "wu_coefficient": 1.104,
        "wu_lower_curve": 1.104 * denom,
    }
