"""Two-prime decompositions of even numbers, at desk scale.

Verification works by elimination (the least-p method of Oliveira e
Silva, Herzog and Pardi, Math. Comp. 83 (2014)): every even n in a
block starts unrepresented, and ascending odd primes q knock out the n
for which n - q is prime.  For one q those n - q are consecutive odds,
so while many evens survive a step is one contiguous slice AND of the
odd-prime table against the block's survivor mask.  Once about 1/50 of
the block is left, the survivors are compressed to their values and
each later q gathers only their flags.  Anything that survives the
small primes gets an exhaustive per-prime check before it may be called
a violation.

Representation counts are computed two independent ways (per-prime
lookup and a complement scan) so the printed numbers never rest on a
single code path; both read the one odd-prime table.  That table is
built once per process: it holds (limit + 1) / 2 bytes for the largest
limit asked for so far, is read-only, and is rebuilt only when a larger
limit is asked for.
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
# the dense slice-AND steps end once at most 1/_SPARSE of a block
# survives, counted every 8 primes
_SPARSE = 50

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


def _scan_evens(lo: int, hi: int, *, first_only: bool) -> list[int]:
    """Evens in [lo, hi] with no two-prime decomposition, ascending."""
    flags = _odd_flags(hi)
    qs = small_primes(min(hi - 2, 10**6))[1:].tolist()  # the odd primes
    violations: list[int] = []
    start = max(lo, 6)  # 4 = 2 + 2 is the one even needing the prime 2
    for blo in range(start, hi + 1, _BLOCK):
        m = (min(blo + _BLOCK - 2, hi) - blo) // 2 + 1
        # rem[i]: blo + 2i has no representation found yet.  For prime
        # q, the flags of blo + 2i - q sit at base + i.
        rem = np.ones(m, dtype=bool)
        j = 0
        while j < len(qs) and (j % 8 or np.count_nonzero(rem) * _SPARSE > m):
            base = (blo - qs[j] - 1) >> 1
            k0 = max(0, 1 - base)  # first i with blo + 2i - q >= 3
            if k0 >= m:
                break
            np.greater(rem[k0:], flags[base + k0:base + m], out=rem[k0:])
            j += 1
        vals = blo + 2 * np.flatnonzero(rem)
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
