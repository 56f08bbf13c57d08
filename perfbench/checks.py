"""Reference values the benchmark states itself, and the plain code behind them.

Nothing here imports primelab: every output the benchmark checks is
compared with a published figure written out below, with a plain sieve
written here, or with the sympy pass recorded in refs.json.
"""
from __future__ import annotations

import json
import math
from math import isqrt
from pathlib import Path

import mpmath
import numpy as np

# Twin pair counts pi_2(10^k), Brent (1975) and Nicely (1995).
PI2 = {10**3: 35, 10**4: 205, 10**5: 1224, 10**6: 8169, 10**7: 58980,
       10**8: 440312, 10**9: 3424506}
# Brun's constant, Sebah (2002) extrapolation at 1e16.
BRUN_B2 = 1.9021605831
# Twin prime constant C_2 = prod_{p>2} (1 - 1/(p-1)^2) to 30 digits.
TWIN_ALPHA = 0.660161815846869573927812110014
# Unordered two-prime representations of 10^8 (p <= q, both prime).
R2_1E8 = 291400
# Constants as the paper-tables report prints them, to 10 places.
PAPER_CONSTANTS = {"alpha": "0.6601618158", "triplet": "2.8582485957",
                   "quadruplet": "4.1511808632", "m^2+1 (half)": "0.6864067314"}

REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def plain_sieve(lo: int, hi: int) -> np.ndarray:
    """Primality of every integer in [lo, hi), index i standing for lo + i."""
    top = isqrt(max(hi - 1, 0))
    base = np.ones(top + 1, dtype=bool)
    base[:2] = False
    for p in range(2, isqrt(top) + 1):
        if base[p]:
            base[p * p::p] = False
    flags = np.ones(max(hi - lo, 0), dtype=bool)
    for p in np.flatnonzero(base).tolist():
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo::p] = False
    flags[:max(0, min(2, hi) - lo)] = False
    return flags


class PrimeTable:
    """Plain sieve of [0, limit], grown on demand and shared by the checks."""

    def __init__(self) -> None:
        self.flags = np.zeros(0, dtype=bool)
        self.primes = np.zeros(0, dtype=np.int64)
        self._brun: dict[int, float] = {}

    def upto(self, limit: int) -> "PrimeTable":
        if limit >= len(self.flags):
            self.flags = plain_sieve(0, limit + 1)
            self.primes = np.flatnonzero(self.flags).astype(np.int64)
        return self

    def is_prime(self, n: int) -> bool:
        return bool(self.upto(n).flags[n])

    def twin_starts(self, limit: int) -> np.ndarray:
        """Every p <= limit with p and p + 2 prime."""
        self.upto(limit + 2)
        ps = self.primes[self.primes <= limit]
        return ps[self.flags[ps + 2]]

    def brun_sum(self, limit: int) -> float:
        """brun_sum over the twin starts up to limit, kept for repeated checks."""
        if limit not in self._brun:
            self._brun[limit] = brun_sum(self.twin_starts(limit))
        return self._brun[limit]

    def goldbach_unordered(self, n: int) -> int:
        """Pairs p <= q of primes with p + q = n."""
        self.upto(n)
        ps = self.primes[:np.searchsorted(self.primes, n // 2, side="right")]
        return int(np.count_nonzero(self.flags[n - ps]))


def brun_sum(starts: np.ndarray) -> float:
    """Sum of 1/p + 1/(p+2) over the given twin starts, in 30-digit mpmath."""
    with mpmath.workdps(30):
        one = mpmath.mpf(1)
        return float(mpmath.fsum(one / p + one / (p + 2) for p in starts.tolist()))


def brun_extrapolated(partial: float, limit: int) -> float:
    """The classical tail correction s + 4 C_2 / log x."""
    return partial + 4.0 * TWIN_ALPHA / math.log(limit)
