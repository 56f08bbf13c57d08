"""Two-prime decompositions of even numbers, at desk scale.

Verification works by elimination (the least-p method of Oliveira e
Silva, Herzog and Pardi, Math. Comp. 83 (2014), who also sieve
bit-packed windows): each block of 2**21 evens starts unrepresented,
and ascending odd primes q knock out the n for which n - q is prime.

For one q those n - q are consecutive odds, so the dense steps work on
packed words.  The block's survivors are one bit per even in
little-endian 64-bit words, the last word masked to the block.  The
window of the odd-prime table that the primes q < 2**14 read for the
block is packed the same way, inverted to composite bits, and padded
with all-ones guard words, so an n - q below 3 or past the table reads
"not prime".  A step is then one funnel shift of that window (two shifts
and an OR, or none when the offset is a whole word) and one in-place AND
over the block's 2**15 words.  Every 8 primes the nonzero words are
counted; once at most 1/64 of them is left, or q's offset leaves the
window, the survivors are read word by word (only nonzero words are
unpacked) and each later q gathers only their flags.  Anything that
survives the small primes gets an exhaustive per-prime check before it
may be called a violation.

Memory: a full block holds four arrays of 256 KiB (the packed window,
the survivor words and two shift buffers), made for that block and
dropped after it, where a byte per even took 2 MiB; nothing packed is
kept between blocks or calls.

Representation counts are computed two independent ways (per-prime
lookup and a complement scan) so the printed numbers never rest on a
single code path; both read the one odd-prime table.  That byte table
is the only one the process keeps: it holds (limit + 1) / 2 bytes for
the largest limit asked for so far, is read-only, and is rebuilt only
when a larger limit is asked for.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import MathViolationError
from .sieve import is_prime_64, odd_prime_flags, small_primes

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
# the dense steps use the odd primes below _DENSE_Q, read from one packed
# window of the table per block
_DENSE_Q = 1 << 14
# the dense steps end once at most 1/_SPARSE of a block's words holds a
# survivor, counted every 8 primes
_SPARSE = 64
# composite bits, 64 to a word; bit b of word w is bit 64w + b of the window
_WORD = np.dtype("<u8")

# the odd-prime table this process keeps; see _odd_flags
_flags_table: np.ndarray | None = None


def _check_even(n: int, name: str = "n") -> None:
    if n < 4 or n % 2:
        raise ValueError(f"{name} must be an even integer >= 4")


def _odd_flags(limit: int) -> np.ndarray:
    """odd_prime_flags(limit) as a read-only prefix view of the one
    table this process keeps, built afresh only for a larger limit."""
    global _flags_table
    n = (limit + 1) // 2
    table = _flags_table
    if table is None or table.size < n:
        table = odd_prime_flags(limit)
        table.setflags(write=False)
        _flags_table = table
    return table[:n]


def _odd_rep_exists_slow(n: int, flags: np.ndarray) -> bool:
    """Exhaustive per-prime check for one n; the last word before
    declaring a violation."""
    for p in small_primes(n // 2 + 1):
        p = int(p)
        if p == 2:
            continue
        if flags[(n - p - 1) >> 1]:
            return True
    return False


def _packed_composites(flags: np.ndarray, lo: int, words: int) -> np.ndarray:
    """Words whose bit t is 0 exactly when flags[lo + t] marks a prime.

    lo is a multiple of 64 and may be negative: indices outside flags
    read as composite, so a guard of all-ones words stands in for them.
    """
    buf = np.zeros(8 * words, dtype=np.uint8)
    a, b = max(lo, 0), min(lo + 64 * words, flags.size)
    if a < b:
        packed = np.packbits(flags[a:b], bitorder="little")
        buf[(a - lo) >> 3:((a - lo) >> 3) + packed.size] = packed
    np.invert(buf, out=buf)
    return buf.view(_WORD)


def _dense_survivors(flags: np.ndarray, qs: list[int], blo: int,
                     m: int) -> tuple[np.ndarray, int]:
    """(i, j): the i, ascending, for which no prime in qs[:j] knocks out
    the even blo + 2i, i < m, with j where the dense steps stopped."""
    nw = -(-m // 64)
    top = (blo - 4) >> 1  # q = 3 reads the flags from here on
    lo = ((blo - _DENSE_Q) >> 1) // 64 * 64
    comp = _packed_composites(flags, lo, (top - lo) // 64 + nw + 1)
    # bit i of rem: blo + 2i has no representation found yet
    rem = np.full(nw, np.iinfo(np.uint64).max, dtype=_WORD)
    if m % 64:
        rem[-1] = (1 << m % 64) - 1
    lo_bits, hi_bits = np.empty_like(rem), np.empty_like(rem)
    j = 0
    while j < len(qs) and (j % 8 or np.count_nonzero(rem) * _SPARSE > nw):
        # the flags of blo + 2i - q sit at base + i
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
    flags = _odd_flags(hi)
    qs = small_primes(min(hi - 2, 10**6))[1:].tolist()  # the odd primes
    violations: list[int] = []
    start = max(lo, 6)  # 4 = 2 + 2 is the one even needing the prime 2
    for blo in range(start, hi + 1, _BLOCK):
        m = (min(blo + _BLOCK - 2, hi) - blo) // 2 + 1
        idx, j = _dense_survivors(flags, qs, blo, m)
        vals = blo + 2 * idx
        for q in qs[j:]:
            if vals.size == 0:
                break
            sub = vals - q
            ok = sub >= 3
            if not ok.any():
                break
            hit = np.zeros(vals.shape, dtype=bool)
            hit[ok] = flags[(sub[ok] - 1) >> 1]
            vals = vals[~hit]
        for n in vals.tolist():
            if not _odd_rep_exists_slow(n, flags):
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
    flags = _odd_flags(n)
    half = n // 2
    js = np.flatnonzero(flags[:(half + 1) // 2])  # odd primes 2j + 1 <= n/2
    return int(np.count_nonzero(flags[half - 1 - js]))


def count_by_complement_scan(n: int) -> int:
    """Unordered primes-only count via one reversed-slice AND."""
    _check_even(n)
    if n == 4:
        return 1
    flags = _odd_flags(n)
    half = n // 2
    m_top = half if half % 2 else half - 1
    if m_top < 3:
        return 0
    lo_idx = 1                    # odd value 3
    hi_idx = (m_top - 1) >> 1
    mate_lo = (n - m_top - 1) >> 1
    mate_hi = (n - 3 - 1) >> 1
    a = flags[lo_idx:hi_idx + 1]
    b = flags[mate_lo:mate_hi + 1][::-1]
    return int(np.count_nonzero(a & b))


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

def euler_variant_check(limit: int) -> list[int]:
    """Violations of: every n = 2 (mod 4) in [6, limit] is a + b with
    a, b each 1 or a prime = 1 (mod 4)."""
    if limit < 6:
        raise ValueError("limit must be at least 6")
    flags = odd_prime_flags(limit)
    top = (limit - 1) // 4
    v = 4 * np.arange(top + 1, dtype=np.int64) + 1
    allowed = flags[(v - 1) >> 1].copy()
    allowed[0] = True  # the unit
    summands = v[allowed]
    rem = np.arange(6, limit + 1, 4, dtype=np.int64)
    violations: list[int] = []
    for a in summands:
        if rem.size == 0:
            break
        b = rem - a
        ok = b >= 1
        if not ok.any():
            violations.extend(int(x) for x in rem)
            rem = rem[:0]
            break
        hit = np.zeros(rem.shape, dtype=bool)
        hit[ok] = allowed[(b[ok] - 1) >> 2]
        rem = rem[~hit]
    violations.extend(int(x) for x in rem)
    return sorted(violations)


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
