"""High-precision constellation constants, li2, and prediction formulas.

Evaluation strategy for the infinite products (Wrench 1961, Cohen 1998):
the product over primes p <= P0 is one exact ratio of Python ints, and a
single log of it is the head.  The log of each remaining factor is
expanded in powers of 1/p and regrouped, so the tail becomes a short
series in prime-power sums past P0, each the prime zeta value P(m) minus
its head sum over p <= P0.  Those head sums (plain, odd-only and
chi4-twisted) are fixed-point integers computed once per (P0, precision)
and shared by every pattern and by the m**2 + 1 constant.  P(m) comes
from Moebius inversion of log zeta; zeta itself (and the Hurwitz form
needed for the mod-4 character) is evaluated with a self-contained
Euler-Maclaurin routine whose N-term head is again a fixed-point integer
sum and whose remainder is bounded by the first omitted correction term.

Working precision carries 10 guard digits past the request; error bounds
are conservative worst-case estimates, not interval arithmetic.  When the
tail coefficients of a pattern magnify the prime zeta remainders past the
request, a second pass tightens those remainders (see _series_hpv).

Supported digits: pattern_constant and twin_constant in [1, 50],
quad_constant in [1, 15], zeta and prime_zeta in [1, 100]; anything
outside raises ValueError, as does a P0 below 100 (at P0 = 3 the tail
coefficients outgrow the working precision and the value is wrong).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from mpmath import mp

from .census import Pattern, admissible
from .errors import MathViolationError
from .refdata import TWIN_BOUND_MULTIPLIERS
from .sieve import factorize_64, small_primes

__all__ = [
    "HighPrecisionValue",
    "Prediction",
    "BoundsReport",
    "zeta",
    "prime_zeta",
    "twin_constant",
    "pattern_constant",
    "quad_constant",
    "li2",
    "li2_precise",
    "predict",
    "historical_bounds",
    "json_report",
]

_GUARD = 10
_DEFAULT_P0 = 10**4


@dataclass(frozen=True)
class HighPrecisionValue:
    """A value carrying a certified absolute error bound.

    digits_requested counts decimal places; the invariant is
    abs_error_bound < 10**(-digits_requested).
    """

    value: Decimal
    abs_error_bound: Decimal
    digits_requested: int
    method: str = ""

    def __post_init__(self) -> None:
        if not self.value.is_finite():
            raise ValueError("value must be finite")
        if self.digits_requested < 1:
            raise ValueError("digits_requested must be >= 1")
        if not 0 <= self.abs_error_bound < Decimal(1).scaleb(-self.digits_requested):
            raise MathViolationError(
                "error bound does not certify the requested digits")

    def decimal_str(self) -> str:
        """The value rounded to exactly digits_requested decimal places."""
        q = Decimal(1).scaleb(-self.digits_requested)
        with localcontext() as ctx:
            ctx.prec = self.digits_requested + 30
            return str(self.value.quantize(q, rounding=ROUND_HALF_EVEN))

    def __float__(self) -> float:
        return float(self.value)


def _hpv(v, bound, digits: int, method: str) -> HighPrecisionValue:
    dec = Decimal(mp.nstr(v, digits + 8))
    # cushion absorbs string conversion and accumulated roundoff slop
    b = Decimal(mp.nstr(bound, 3)) + Decimal(1).scaleb(-(digits + 4))
    return HighPrecisionValue(dec, b, digits, method)


# ---------------------------------------------------------------------------
# Exact Bernoulli numbers (recurrence over Fractions).

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli_fraction(n: int) -> Fraction:
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


# ---------------------------------------------------------------------------
# Fixed-point sums.
#
# A finite sum of rational terms is taken in W-bit fixed point, W = mp.prec
# + 40: each term becomes floor(2**W * term), so a sum of N terms is low by
# less than N * 2**-W, about 2**-30 of the working precision's own rounding
# for the 1229 primes below the default P0.  A tail coefficient |c_m| (below
# 2**32 at P0 = 10**4) multiplies that error, which still leaves it under
# 2**-11 of the 10**-(dps - 3) roundoff cushion every bound below carries,
# so no bound formula has a term of its own for it.  (Smaller P0 means
# larger coefficients; the second pass of _series_hpv adds their digits to
# the working precision.)

def _fixed_width() -> int:
    return mp.prec + 40


def _from_fixed(x: int, w: int):
    return mp.ldexp(mp.mpf(x), -w)


class _HeadPowerSums:
    """Sums of p**-m over the primes p <= P0, as W-bit fixed-point ints.

    For each m >= 1: plain[m] over all primes, odd[m] over the odd primes
    and chi[m] over the odd primes weighted by chi4(p).  The terms for m
    come from those for m - 1 by one integer division per prime, exactly,
    since floor(floor(a / b) / c) = floor(a / (b c)).
    """

    def __init__(self, p0: int, w: int):
        primes = [int(p) for p in small_primes(p0)]
        self.w = w
        self._ones = [p for p in primes if p % 4 == 1]
        self._threes = [p for p in primes if p % 4 == 3]
        self._t1 = [1 << w] * len(self._ones)
        self._t3 = [1 << w] * len(self._threes)
        self._t2 = (1 << w) if primes else 0
        self.plain, self.odd, self.chi = [0], [0], [0]  # index 0 unused

    def upto(self, m_top: int) -> "_HeadPowerSums":
        while len(self.odd) <= m_top:
            self._t1 = [t // p for t, p in zip(self._t1, self._ones)]
            self._t3 = [t // p for t, p in zip(self._t3, self._threes)]
            self._t2 >>= 1
            s1, s3 = sum(self._t1), sum(self._t3)
            self.odd.append(s1 + s3)
            self.plain.append(s1 + s3 + self._t2)
            self.chi.append(s1 - s3)
        return self


_power_sums_cache: dict = {}


def _head_power_sums(p0: int, m_top: int) -> _HeadPowerSums:
    """The shared head sums for (P0, working precision), through m_top."""
    w = _fixed_width()
    sums = _power_sums_cache.get((p0, w))
    if sums is None:
        sums = _power_sums_cache[(p0, w)] = _HeadPowerSums(p0, w)
    return sums.upto(m_top)


# ---------------------------------------------------------------------------
# Euler-Maclaurin Hurwitz zeta with a remainder bound.

_em_cache: dict = {}


def _em_hurwitz(s: int, a: Fraction, eps):
    """zeta(s, a) for integer s > 1, rational 0 < a <= 1: (value, bound)."""
    key = (s, a, mp.dps, eps)
    hit = _em_cache.get(key)
    if hit is not None:
        return hit
    r, q = a.numerator, a.denominator
    w = _fixed_width()
    top, s_int = q**s << w, s  # (a + n)**-s = q**s / (r + q n)**s
    s = mp.mpf(s)
    a = mp.mpf(r) / q
    N = max(16, int(mp.dps * 1.2))
    for _ in range(14):
        M = N + a
        head = _from_fixed(sum(top // (r + q * n) ** s_int for n in range(N)), w)
        value = head + mp.power(M, 1 - s) / (s - 1) + mp.power(M, -s) / 2
        rising = s  # (s)_1, extended two factors per correction step
        pw = mp.power(M, -s - 1)
        corr = mp.mpf(0)
        prev = mp.inf
        j = 1
        remainder = None
        while j <= 500:
            b = bernoulli_fraction(2 * j)
            term = (mp.mpf(b.numerator) / b.denominator
                    / mp.factorial(2 * j) * rising * pw)
            mag = abs(term)
            if mag < eps:
                remainder = mag
                break
            if mag > prev:
                break  # asymptotic series turned; need a larger N
            corr += term
            prev = mag
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            pw /= M * M
            j += 1
        if remainder is not None:
            out = (value + corr, remainder)
            _em_cache[key] = out
            return out
        N *= 2
    raise MathViolationError("Euler-Maclaurin summation failed to settle")


def _beta_chi4(s: int, eps):
    """Dirichlet beta (mod-4 L-value) for integer s >= 1."""
    if s == 1:
        return mp.pi / 4, mp.mpf(10) ** (-(mp.dps - 2))
    z1, b1 = _em_hurwitz(s, Fraction(1, 4), eps)
    z3, b3 = _em_hurwitz(s, Fraction(3, 4), eps)
    scale = mp.power(4, -s)
    return scale * (z1 - z3), scale * (b1 + b3)


# ---------------------------------------------------------------------------
# Prime zeta values by Moebius inversion of log zeta.

@lru_cache(maxsize=None)
def _mobius_upto(n: int) -> tuple[int, ...]:
    mu = [1] * (n + 1)
    prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if not prime[p]:
            continue
        for q in range(p, n + 1, p):
            if q > p:
                prime[q] = False
            mu[q] = -mu[q]
        pp = p * p
        for q in range(pp, n + 1, pp):
            mu[q] = 0
    return tuple(mu)


_pz_cache: dict = {}


def _prime_zeta_mpf(s: int, eps):
    """P(s) = sum over primes of p**-s, s >= 2: returns (value, bound)."""
    key = ("P", s, mp.dps, eps)
    hit = _pz_cache.get(key)
    if hit is not None:
        return hit
    # truncate when zeta(ns) - 1 ~ 2**-(ns) is negligible
    nmax = max(2, int(math.log(8 / float(eps), 2) / s) + 1)
    mu = _mobius_upto(nmax)
    total = mp.mpf(0)
    bound = mp.mpf(0)
    for n in range(1, nmax + 1):
        if mu[n] == 0:
            continue
        z, zb = _em_hurwitz(n * s, Fraction(1), eps)
        total += mp.mpf(mu[n]) / n * mp.log(z)
        bound += 2 * zb
    bound += 4 * mp.power(2, -(nmax + 1) * s)
    _pz_cache[key] = (total, bound)
    return total, bound


def _prime_zeta_odd_mpf(s: int, eps):
    """Prime zeta restricted to odd primes, s >= 2."""
    v, b = _prime_zeta_mpf(s, eps)
    return v - mp.power(2, -s), b


def _g_chi4(s: int, eps):
    """log beta(s) minus its even-power prime content; building block of P_chi."""
    bv, bb = _beta_chi4(s, eps)
    total = mp.log(bv)
    bound = bb * 2  # |d log| <= db / beta, and beta > 1/2 throughout
    k = 2
    while True:
        tail_scale = 4 * mp.power(3, -k * s)  # P_odd(ks) < 2*3**-(ks)
        if tail_scale < eps:
            bound += tail_scale
            break
        pv, pb = _prime_zeta_odd_mpf(k * s, eps)
        total -= pv / k
        bound += pb / k
        k += 2
    return total, bound


def _prime_zeta_chi4_mpf(s: int, eps):
    """P_chi(s) = sum over odd primes of chi4(p) p**-s; valid for s >= 1."""
    key = ("Pchi", s, mp.dps, eps)
    hit = _pz_cache.get(key)
    if hit is not None:
        return hit
    nmax = max(3, int(math.log(8 / float(eps), 3) / s) + 2)
    mu = _mobius_upto(nmax)
    total = mp.mpf(0)
    bound = mp.mpf(0)
    for n in range(1, nmax + 1, 2):
        if mu[n] == 0:
            continue
        g, gb = _g_chi4(n * s, eps)
        total += mp.mpf(mu[n]) / n * g
        bound += gb
    bound += 4 * mp.power(3, -(nmax + 1) * s)
    _pz_cache[key] = (total, bound)
    return total, bound


# ---------------------------------------------------------------------------
# Public zeta / prime zeta.

def _check_zeta_args(s: int, digits: int) -> None:
    if s < 2:
        raise ValueError("s must be at least 2")
    if not 1 <= digits <= 100:
        raise ValueError("digits must be in [1, 100]")


def zeta(s: int, digits: int = 15) -> HighPrecisionValue:
    """Riemann zeta at an integer point s >= 2, digits in [1, 100]."""
    _check_zeta_args(s, digits)
    with mp.workdps(digits + _GUARD):
        eps = mp.mpf(10) ** (-(digits + 6))
        v, b = _em_hurwitz(s, Fraction(1), eps)
        return _hpv(v, b, digits, "euler_maclaurin")


_CHARACTERS = ("trivial", "mod4")


def prime_zeta(s: int, digits: int = 15,
               character: str = "trivial") -> HighPrecisionValue:
    """Sum of chi(p)/p**s over primes, s >= 2 and digits in [1, 100].

    Computed by Moebius inversion of log zeta (log beta for mod4).
    """
    _check_zeta_args(s, digits)
    if character not in _CHARACTERS:
        raise ValueError(f"character must be one of {_CHARACTERS}")
    with mp.workdps(digits + _GUARD):
        eps = mp.mpf(10) ** (-(digits + 6))
        if character == "trivial":
            v, b = _prime_zeta_mpf(s, eps)
        else:
            v, b = _prime_zeta_chi4_mpf(s, eps)
        return _hpv(v, b, digits, "moebius_log_zeta")


# ---------------------------------------------------------------------------
# Singular series for admissible patterns.

def _tail_order(k: int, p0: int, eps) -> int:
    """Last power m of the tail series; the rest is bounded geometrically."""
    j_top = 2
    while (p0 / (j_top * (j_top - 1))) * (k / p0) ** j_top > float(eps) / 4:
        j_top += 1
    return j_top


def _log_ratio(num: int, den: int):
    """log(num / den) for exact ints, through one fixed-point quotient."""
    w = _fixed_width()
    return mp.log(_from_fixed((num << w) // den, w))


@lru_cache(maxsize=None)
def _head_past_reach(k: int, reach: int, p0: int) -> tuple[int, int]:
    """prod over reach < p <= P0 of (p - k) p**(k-1), and of (p - 1)**k.

    Past the reach the k offsets are distinct mod p, so nu(p) = k.
    """
    num = den = 1
    for p in map(int, small_primes(p0)):
        if p > reach:
            num *= (p - k) * p ** (k - 1)
            den *= (p - 1) ** k
    return num, den


def _pattern_raw_mpf(pat: Pattern, digits: int, p0: int,
                     scaled: bool = False):
    """The full singular series over all primes: returns (value, bound).

    With scaled, the prime zeta value P(m) is asked for at eps / |c_m|, so
    no tail coefficient can magnify its remainder past eps.
    """
    k = pat.k
    eps = mp.mpf(10) ** (-(digits + 6))
    # exact head: prod over p <= P0 of (1 - nu/p) (1 - 1/p)**-k as one ratio
    num, den = _head_past_reach(k, pat.reach, p0)
    for p in map(int, small_primes(min(pat.reach, p0))):
        num *= (p - pat.residue_count(p)) * p ** (k - 1)
        den *= (p - 1) ** k
    head = _log_ratio(num, den)

    # tail: sum_m (k - k**m)/m * T_m with T_m the prime power sums past P0
    j_top = _tail_order(k, p0, eps)
    sums = _head_power_sums(p0, j_top)
    tail = mp.mpf(0)
    bound = mp.mpf(0)
    for m in range(2, j_top + 1):
        c_m = mp.mpf(k - k**m) / m
        pz, pzb = _prime_zeta_mpf(m, eps / max(1, abs(c_m)) if scaled else eps)
        t_m = pz - _from_fixed(sums.plain[m], sums.w)
        tail += c_m * t_m
        bound += abs(c_m) * pzb
    # geometric bound on everything past j_top
    bound += 2 * (p0 / (j_top * (j_top + 1))) * mp.power(mp.mpf(k) / p0, j_top + 1)

    log_total = head + tail
    value = mp.e**log_total
    # |d e^x| <= e^x * (|dx| + roundoff cushion)
    bound = value * (bound + mp.mpf(10) ** (-(mp.dps - 3)))
    return value, bound


def _series_hpv(pat: Pattern, digits: int, p0: int,
                share: int = 1) -> HighPrecisionValue:
    """The singular series divided by share, certified to digits places.

    The tail coefficients |c_m| = |k - k**m| / m reach 10**9 for k = 4, and
    they multiply the prime zeta remainders.  When that keeps the first
    pass from certifying, the second asks each P(m) for eps / |c_m|, with
    working digits raised by the digits of |k - k**j_top|, which bounds
    every |c_m|.
    """
    method = f"hybrid_product_p0={p0}"
    with mp.workdps(digits + _GUARD):
        v, b = _pattern_raw_mpf(pat, digits, p0)
        try:
            return _hpv(v / share, b / share, digits, method)
        except MathViolationError:
            pass
    k = pat.k
    c_top = abs(k - k ** _tail_order(k, p0, mp.mpf(10) ** (-(digits + 6))))
    with mp.workdps(digits + _GUARD + len(str(c_top))):
        v, b = _pattern_raw_mpf(pat, digits, p0, scaled=True)
        return _hpv(v / share, b / share, digits, method)


def pattern_constant(pattern, digits: int = 10, *,
                     p0: int = _DEFAULT_P0) -> HighPrecisionValue:
    """The singular series prod_p (1 - nu(p)/p) (1 - 1/p)**-k for the pattern.

    For the pair pattern this equals twice the twin constant; the printed
    triplet and quadruplet constants are this same product (their usual
    normalized forms are algebraically identical).  Digits in [1, 50].
    """
    pat = Pattern.coerce(pattern)
    if not admissible(pat):
        raise ValueError("inadmissible pattern has no nonzero singular series")
    if pat.k > 4:
        raise ValueError("patterns beyond size 4 are out of scope")
    if not 1 <= digits <= 50:
        raise ValueError("digits must be in [1, 50]")
    if p0 < max(100, pat.reach + 1):
        raise ValueError("P0 must exceed the pattern reach (and be >= 100)")
    return _series_hpv(pat, digits, p0)


def twin_constant(digits: int = 10, *,
                  p0: int = _DEFAULT_P0) -> HighPrecisionValue:
    """The twin prime constant: half the pair pattern's singular series.

    Digits in [1, 50].
    """
    if not 1 <= digits <= 50:
        raise ValueError("digits must be in [1, 50]")
    if p0 < 100:
        raise ValueError("P0 must be >= 100")
    return _series_hpv(Pattern.coerce((0, 2)), digits, p0, share=2)


def quad_constant(digits: int = 10, *,
                  p0: int = _DEFAULT_P0) -> HighPrecisionValue:
    """Half of prod over odd p of (1 - chi4(p)/(p-1)), character-twisted.

    The raw product converges only conditionally (alternating character),
    so the tail is evaluated through mod-4 prime zeta values instead of
    truncation.  Digits in [1, 15].
    """
    if not 1 <= digits <= 15:
        raise ValueError("digits must be in [1, 15]")
    if p0 < 100:
        raise ValueError("P0 must be >= 100")
    with mp.workdps(digits + _GUARD):
        eps = mp.mpf(10) ** (-(digits + 6))
        # exact head: prod over odd p <= P0 of (p - 1 - chi) / (p - 1)
        num = den = 1
        for p in map(int, small_primes(p0)):
            if p > 2:
                num *= p - 2 if p % 4 == 1 else p
                den *= p - 1
        head = _log_ratio(num, den)

        # log(1 - chi*t/(1-t)) = -sum_j t**j (A_j chi + B_j), t = 1/p
        j_top = 2
        while 2.0**j_top * p0 ** (1 - j_top) > float(eps) / 4:
            j_top += 1
        a_coef = {j: sum(Fraction(comb(j - 1, m - 1), m)
                         for m in range(1, j + 1, 2)) for j in range(1, j_top + 1)}
        b_coef = {j: sum(Fraction(comb(j - 1, m - 1), m)
                         for m in range(2, j + 1, 2)) for j in range(1, j_top + 1)}

        sums = _head_power_sums(p0, j_top)
        tail = mp.mpf(0)
        bound = mp.mpf(0)
        for j in range(1, j_top + 1):
            pchi, pchib = _prime_zeta_chi4_mpf(j, eps)
            t_chi = pchi - _from_fixed(sums.chi[j], sums.w)
            term = mp.mpf(a_coef[j].numerator) / a_coef[j].denominator * t_chi
            bound += abs(mp.mpf(a_coef[j].numerator) / a_coef[j].denominator) * pchib
            if b_coef[j]:
                podd, poddb = _prime_zeta_odd_mpf(j, eps)
                t_odd = podd - _from_fixed(sums.odd[j], sums.w)
                term += mp.mpf(b_coef[j].numerator) / b_coef[j].denominator * t_odd
                bound += abs(mp.mpf(b_coef[j].numerator) / b_coef[j].denominator) * poddb
            tail -= term
        bound += 4 * mp.power(2, j_top + 1) * mp.power(p0, -j_top)

        full = mp.e ** (head + tail)
        bound = full * (bound + mp.mpf(10) ** (-(mp.dps - 3)))
        return _hpv(full / 2, bound / 2, digits, f"chi4_transform_p0={p0}")


# ---------------------------------------------------------------------------
# li2 by adaptive Simpson quadrature.

def _adaptive_simpson(f, a, b, tol, fa=None, fm=None, fb=None, depth=60):
    m = (a + b) / 2
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    fm = f(m) if fm is None else fm
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15 * tol:
        return left + right + err / 15
    return (_adaptive_simpson(f, a, m, tol / 2, fa, flm, fm, depth - 1)
            + _adaptive_simpson(f, m, b, tol / 2, fm, frm, fb, depth - 1))


def li2(x: float, rel_tol: float = 1e-10) -> float:
    """Integral from 2 to x of dt / log(t)**2, adaptive Simpson."""
    if not 2 < x < math.inf:
        raise ValueError("x must be finite and exceed 2")
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must be in (0, 1)")

    def f(t: float) -> float:
        lg = math.log(t)
        return 1.0 / (lg * lg)

    # coarse value fixes the absolute tolerance for the adaptive pass
    rough = (x - 2) / 6 * (f(2) + 4 * f((2 + x) / 2) + f(x))
    tol = rel_tol * max(abs(rough), 1e-300) / 4
    return _adaptive_simpson(f, 2.0, float(x), tol)


def li2_precise(x, dps: int = 25):
    """li2 in arbitrary precision (mpf), for reference tables.

    Integration by parts turns the quadrature into special functions:
    d/dt (t/log t) = 1/log t - 1/log^2 t, so the integral from 2 to x of
    dt/log^2 t equals li(x) - li(2) - x/log x + 2/log 2. Exact at working
    precision, and usable at x = 10^16 where direct quadrature is not.
    """
    with mp.workdps(dps + 5):
        xm = mp.mpf(x)
        if xm <= 2:
            raise ValueError("x must exceed 2")
        val = (mp.li(xm) - mp.li(mp.mpf(2))
               - xm / mp.log(xm) + 2 / mp.log(mp.mpf(2)))
    with mp.workdps(dps):
        return +val


# ---------------------------------------------------------------------------
# Predictions.

@dataclass(frozen=True)
class Prediction:
    quantity: str
    x: int
    value: float
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.value >= 0:
            raise MathViolationError("predictions must be non-negative")


_PREDICT_TAGS = ("pi2k", "l2", "pattern", "goldbach_r", "qn")


@lru_cache(maxsize=None)
def _alpha25() -> HighPrecisionValue:
    """The twin constant to 25 digits, computed once per process.

    Every float use of alpha, and the Brun extrapolation, reads this one
    value.
    """
    return twin_constant(25)


def _alpha_float() -> float:
    return float(_alpha25())


@lru_cache(maxsize=None)
def _quad_float() -> float:
    return float(quad_constant(14))


def _odd_factor_product(n: int) -> float:
    """prod over odd primes p | n of (p - 1) / (p - 2)."""
    out = 1.0
    for p, _ in factorize_64(n).factors:
        if p > 2:
            out *= (p - 1) / (p - 2)
    return out


def _check_float_range(x: int) -> None:
    """Reject an x past the float range (about 1.8e308) of the formulas."""
    try:
        float(x)
    except OverflowError:
        raise ValueError("x must be below 2**1024, the float range") from None


def predict(quantity: str, x: int, params: dict | None = None) -> Prediction:
    """Evaluate one of the closed-form predictions at x.

    Tags: pi2k (pairs at gap 2k; params k), l2 (the li2-based pair count),
    pattern (params pattern; count ~ H * x / log(x)**k), goldbach_r
    (representations of the even number x), qn (primes m*m+1 up to x).
    x may be any integer from 10 up to the float range, except for
    goldbach_r, which factors x and so needs x < 2**64.
    """
    params = dict(params or {})
    if quantity not in _PREDICT_TAGS:
        raise ValueError(f"unknown prediction tag {quantity!r}")
    if x < 10:
        raise ValueError("x must be at least 10")
    _check_float_range(x)
    lx = math.log(x)
    alpha = _alpha_float()
    if quantity == "l2":
        value = 2 * alpha * li2(x)
    elif quantity == "pi2k":
        k = int(params.get("k", 1))
        if k < 1:
            raise ValueError("k must be >= 1")
        params["k"] = k
        value = 2 * alpha * _odd_factor_product(k) * li2(x)
    elif quantity == "pattern":
        pat = Pattern.coerce(params.get("pattern", (0, 2)))
        params["pattern"] = pat.offsets
        h = float(pattern_constant(pat, 12))
        value = h * (x / lx**pat.k)  # h * x may leave the float range
    elif quantity == "goldbach_r":
        if x % 2:
            raise ValueError("goldbach_r needs an even number")
        if x >= 1 << 64:
            raise ValueError(f"goldbach_r factors x, so it needs x < 2**64;"
                             f" x = {x:.6g}")
        value = 2 * alpha * (x / lx**2) * _odd_factor_product(x)
    else:  # qn
        value = 2 * _quad_float() * math.sqrt(x) / lx
    return Prediction(quantity, x, value, params)


# ---------------------------------------------------------------------------
# Historical bounds.

class BoundsReport(NamedTuple):
    x: int
    values: dict[str, float]
    multipliers: tuple[tuple[int, str, str, float], ...]


def _parse_multiplier(text: str) -> float:
    head = text.split("=")[0].strip().rstrip(".")
    if "/" in head:
        return float(Fraction(head))
    return float(head)


def historical_bounds(x: int) -> BoundsReport:
    """Published pair-count bounds evaluated at x.

    The Riesel-Vaughan bound is stated for x > e**42 and the multiplier
    table rows hold for sufficiently large x; values are reported at any
    x >= 100 for comparison, validity caveats left to the caller.
    """
    if x < 100:
        raise ValueError("x must be at least 100")
    _check_float_range(x)
    lx = math.log(x)
    alpha = _alpha_float()
    l2x = li2(x)
    try:
        values = {
            "brun_7200": 7200 * x / lx**2 * math.log(lx) ** 2
            + x / lx**6 + x**0.75,
            "brun_100": 100 * x / lx**2,
            "explicit_16alpha": 16 * alpha * x / lx**2,
            "riesel_vaughan": 16 * alpha * x / ((7.5 + lx) * lx),
            "bombieri_davenport": 8 * alpha * x / lx**2,
            "chen_almost_lower": 0.335 * 2 * alpha * l2x,
            "wu_almost_lower": 1.104 * 2 * alpha * l2x,
        }
    except OverflowError:  # 7200 * x leaves the float range near 1e304
        raise ValueError("x is too large: a bound overflows a float") from None
    rows = tuple(
        (year, c_text, name, _parse_multiplier(c_text) * 2 * alpha * l2x)
        for year, c_text, name in TWIN_BOUND_MULTIPLIERS)
    return BoundsReport(x, values, rows)


def json_report(digits: int = 10, quad_digits: int = 10) -> dict:
    """Headline constants with value, error bound, and method tag."""
    alpha = twin_constant(digits)
    pair = pattern_constant((0, 2), digits)
    trip = pattern_constant((0, 2, 6), digits)
    quad = pattern_constant((0, 2, 6, 8), digits)
    qres = quad_constant(quad_digits)
    out = {}
    for name, hpv in (("twin_alpha", alpha), ("pair_series", pair),
                      ("triplet_series", trip), ("quadruplet_series", quad),
                      ("quad_residue", qres)):
        out[name] = {
            "value": hpv.decimal_str(),
            "abs_error_bound": str(hpv.abs_error_bound),
            "digits": hpv.digits_requested,
            "method": hpv.method,
        }
    return out
