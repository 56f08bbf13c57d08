import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primelab.census import admissible
from primelab.constants import (
    HighPrecisionValue,
    Prediction,
    bernoulli_fraction,
    historical_bounds,
    li2,
    li2_precise,
    pattern_constant,
    predict,
    prime_zeta,
    quad_constant,
    twin_constant,
    zeta,
)
from primelab.errors import MathViolationError

from conftest import naive_sieve


# --- published digit strings -------------------------------------------------

def test_twin_constant_digits():
    assert twin_constant(10).decimal_str() == "0.6601618158"


def test_triplet_constant_digits():
    assert pattern_constant((0, 2, 6), 10).decimal_str() == "2.8582485957"
    # both triplet shapes share the constant
    assert pattern_constant((0, 4, 6), 10).decimal_str() == "2.8582485957"


def test_quadruplet_constant_digits():
    assert pattern_constant((0, 2, 6, 8), 10).decimal_str() == "4.1511808632"


def test_quad_residue_constant_digits():
    assert quad_constant(10).decimal_str() == "0.6864067314"


def test_doubled_twin_constant_rounds_up():
    # the correctly rounded 11th digit is ...317; the circulating string
    # ...316 is a truncation of ...3169
    assert twin_constant(18).decimal_str().startswith("0.660161815846869")
    doubled = (Decimal(2) * Decimal(twin_constant(14).decimal_str()))
    assert str(doubled).startswith("1.320323631693")


# --- oracle cross-checks (mpmath used as test oracle only) --------------------

def test_zeta_vs_mpmath():
    for s in (2, 3, 5, 12):
        ours = zeta(s, 25)
        want = mp.mpf(mp.nstr(mp.zeta(s), 30))
        assert abs(mp.mpf(str(ours.value)) - want) < mp.mpf(10) ** -24


def test_zeta_two_closed_form():
    got = float(zeta(2, 15))
    assert got == pytest.approx(math.pi**2 / 6, rel=1e-14)


def test_prime_zeta_vs_direct_sum():
    ps = naive_sieve(10**6)
    for s in (2, 3):
        direct = sum(p ** (-float(s)) for p in ps)
        tail = 2.0 / ((s - 1) * 10**6 ** (s - 1) * math.log(10**6))
        got = float(prime_zeta(s, 15))
        assert abs(got - direct) < tail + 1e-12


def test_prime_zeta_mod4_vs_direct_sum():
    ps = naive_sieve(10**7)
    direct = sum((1 if p % 4 == 1 else -1) * p**-2.0 for p in ps if p % 2)
    got = float(prime_zeta(2, 15, character="mod4"))
    assert got == pytest.approx(direct, abs=5e-9)


def test_bernoulli_fractions():
    assert bernoulli_fraction(0) == 1
    assert bernoulli_fraction(1) == Fraction(-1, 2)
    assert bernoulli_fraction(2) == Fraction(1, 6)
    assert bernoulli_fraction(12) == Fraction(-691, 2730)
    assert bernoulli_fraction(13) == 0


def test_li2_vs_mpmath_quad():
    for x in (10**3, 10**6, 10**8):
        want = float(mp.quad(lambda t: 1 / mp.log(t) ** 2, [2, x]))
        assert li2(x, 1e-10) == pytest.approx(want, rel=1e-9)


def test_li2_tolerance_halving():
    for x in (10**3, 10**6):
        for tol in (1e-6, 1e-8):
            a, b = li2(x, tol), li2(x, tol / 2)
            assert abs(a - b) <= tol * abs(b)


def test_li2_precise_agrees_with_quadrature():
    # identity route vs the self-contained Simpson route
    for x in (10**3, 10**6, 10**8):
        assert float(li2_precise(x, 25)) == pytest.approx(li2(x, 1e-12),
                                                          rel=1e-11)


def test_li2_domain():
    with pytest.raises(ValueError):
        li2(2.0)
    with pytest.raises(ValueError):
        li2_precise(2)


# --- stability and invariants -------------------------------------------------

def test_digit_prefix_stability():
    long = twin_constant(30).decimal_str()
    for d in (5, 10, 20):
        short = twin_constant(d).decimal_str()
        # rounded prefixes may differ in the last digit only
        a, b = Decimal(short), Decimal(long)
        assert abs(a - b) <= Decimal(1).scaleb(-d)


def test_p0_self_consistency():
    a = pattern_constant((0, 2), 12, p0=10**4)
    b = pattern_constant((0, 2), 12, p0=3 * 10**4)
    assert a.decimal_str() == b.decimal_str()


def test_quad_constant_vs_raw_truncation():
    # raw Euler product over p <= 1e6, conditionally convergent ordering
    ps = naive_sieve(10**6)
    prod = 1.0
    for p in ps:
        if p > 2:
            chi = 1 if p % 4 == 1 else -1
            prod *= 1 - chi / (p - 1)
    got = float(quad_constant(12)) * 2
    assert abs(got - prod) < 5e-5  # 4+ digits from a slow truncation


def test_hpv_invariant_enforced():
    with pytest.raises(MathViolationError):
        HighPrecisionValue(Decimal("1.5"), Decimal("0.1"), 10)
    ok = HighPrecisionValue(Decimal("1.5"), Decimal("1e-11"), 10)
    assert ok.decimal_str() == "1.5000000000"
    with pytest.raises(ValueError):
        HighPrecisionValue(Decimal("nan"), Decimal("1e-11"), 10)


def test_error_bounds_honest():
    # 30-digit value must agree with a 10-digit value within both bounds
    a, b = twin_constant(10), twin_constant(30)
    diff = abs(Decimal(a.decimal_str()) - Decimal(b.decimal_str()))
    assert diff <= a.abs_error_bound + b.abs_error_bound + \
        Decimal(1).scaleb(-10)


def test_constants_domain_errors():
    with pytest.raises(ValueError):
        pattern_constant((0, 2, 4), 10)  # inadmissible
    with pytest.raises(ValueError):
        pattern_constant((0, 2), 0)
    with pytest.raises(ValueError):
        pattern_constant((0, 2), 80)  # beyond supported precision
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        prime_zeta(1)
    with pytest.raises(ValueError):
        quad_constant(40)
    # zeta and prime_zeta take digits in [1, 100]
    for bad in (0, 101, 400):
        with pytest.raises(ValueError):
            zeta(3, bad)
        for character in ("trivial", "mod4"):
            with pytest.raises(ValueError):
                prime_zeta(2, bad, character)
    assert zeta(3, 100).digits_requested == 100
    # P0 below 100 is rejected: at 3 the tail coefficients outgrow the
    # working precision, and at 2 the search for the tail order has no end
    for p0 in (1, 2, 3, 99):
        with pytest.raises(ValueError):
            twin_constant(10, p0=p0)
        with pytest.raises(ValueError):
            quad_constant(10, p0=p0)


@given(st.integers(min_value=1, max_value=50))
def test_decimal_str_length(digits):
    s = twin_constant(digits).decimal_str()
    frac = s.split(".")[1]
    assert len(frac) == digits


def test_head_power_sums_fixed_point_error():
    # each W-bit sum of N terms is off by less than N * 2**-W
    from primelab.constants import _HeadPowerSums
    ps = naive_sieve(1000)
    w = 80
    sums = _HeadPowerSums(1000, w).upto(6)
    for m in range(1, 7):
        for got, chi in ((sums.plain[m], lambda p: 1),
                         (sums.odd[m], lambda p: p % 2),
                         (sums.chi[m], lambda p: 0 if p == 2 else
                          (1 if p % 4 == 1 else -1))):
            exact = sum(Fraction(chi(p), p**m) for p in ps) * 2**w
            assert abs(exact - got) < len(ps), m


def _small_admissible_patterns():
    evens = range(2, 13, 2)
    return [(0,) + rest for k in range(4)
            for rest in itertools.combinations(evens, k)
            if admissible((0,) + rest)]


def test_every_small_pattern_certifies():
    # k <= 4 and reach <= 12 at every supported digits: the tail
    # coefficients |c_m| = |k - k**m|/m reach 10**9 and magnify the prime
    # zeta remainders, so (0,2,6,8) from 26 digits and the triplets from 41
    # need the second pass to certify
    pats = _small_admissible_patterns()
    assert len(pats) == 26
    for pat in pats:
        ref = pattern_constant(pat, 50)
        for digits in range(1, 50):
            got = pattern_constant(pat, digits)
            diff = abs(Decimal(got.decimal_str()) - Decimal(ref.decimal_str()))
            assert diff <= (Decimal(1).scaleb(-digits) / 2
                            + got.abs_error_bound + ref.abs_error_bound
                            + Decimal(1).scaleb(-50)), (pat, digits)
    for digits in range(1, 16):
        assert len(quad_constant(digits).decimal_str().split(".")[1]) == digits


# OEIS A005597, the twin prime constant
A005597 = "0.66016181584686957392781211001455577843262336028473341331944"


def test_twin_constant_50_digits_vs_oeis():
    with localcontext() as ctx:
        ctx.prec = 80
        want = Decimal(A005597).quantize(Decimal(1).scaleb(-50))
    assert twin_constant(50).decimal_str() == str(want)


def _series_oracle(offsets, dps=45, head_limit=1000):
    """Singular series from a head over p <= head_limit and an mpmath
    prime zeta tail, sum_m (k - k**m)/m (P(m) - sum p**-m)."""
    k = len(offsets)
    with mp.workdps(dps):
        ps = naive_sieve(head_limit)
        head = mp.fsum(
            mp.log(1 - mp.mpf(len({o % p for o in offsets})) / p)
            - k * mp.log(1 - mp.mpf(1) / p) for p in ps)
        tail = mp.mpf(0)
        m = 2
        while mp.mpf(k) ** m / m * mp.mpf(head_limit) ** (1 - m) > \
                mp.mpf(10) ** -(dps - 5):
            rest = mp.primezeta(m) - mp.fsum(mp.mpf(p) ** -m for p in ps)
            tail += mp.mpf(k - k**m) / m * rest
            m += 1
        return Decimal(mp.nstr(mp.exp(head + tail), dps - 5))


def test_triplet_and_quadruplet_vs_mpmath_primezeta():
    for offsets in ((0, 2, 6), (0, 2, 6, 8)):
        got = pattern_constant(offsets, 30)
        want = _series_oracle(offsets)
        assert abs(Decimal(got.decimal_str()) - want) <= \
            Decimal(1).scaleb(-30) / 2 + got.abs_error_bound


def test_quad_constant_p0_self_consistency():
    a = quad_constant(15, p0=10**4)
    b = quad_constant(15, p0=3 * 10**4)
    assert a.decimal_str() == b.decimal_str()


def test_paper_report_evaluates_pair_series_at_most_three_times(monkeypatch):
    # the "alpha" and "2 alpha" rows, and one cached 25-digit alpha read
    # by every float use and the Brun extrapolation (predictions, bounds,
    # Brun, Goldbach, records)
    from primelab import constants, reports
    constants._alpha25.cache_clear()
    calls = []
    real = constants._pattern_raw_mpf

    def counting(pat, *args, **kwargs):
        if pat.offsets == (0, 2):
            calls.append(args)
        return real(pat, *args, **kwargs)

    monkeypatch.setattr(constants, "_pattern_raw_mpf", counting)
    reports.build_comparison_document(10**4)
    assert 1 <= len(calls) <= 3, calls


# --- predictions and bounds ----------------------------------------------------

def test_predict_l2_near_published():
    v = predict("l2", 10**3).value
    assert abs(v - 46) <= 1  # census 35 + published excess 11


def test_predict_pi2k_doubling():
    base = predict("pi2k", 10**6, {"k": 1}).value
    assert predict("pi2k", 10**6, {"k": 3}).value == pytest.approx(2 * base)


def test_predict_pattern_uses_constant():
    v = predict("pattern", 10**6, {"pattern": (0, 2, 6)}).value
    lx = math.log(10**6)
    want = float(pattern_constant((0, 2, 6), 12)) * 10**6 / lx**3
    assert v == pytest.approx(want, rel=1e-9)


def test_predict_finite_at_the_top_of_the_float_range():
    # h * x leaves the float range before the division by log(x)**k does
    x, pat = 10**308, (0, 2, 6, 8)
    v = predict("pattern", x, {"pattern": pat}).value
    log_v = (math.log(float(pattern_constant(pat, 12))) + math.log(x)
             - len(pat) * math.log(math.log(x)))
    assert math.isfinite(v)
    assert math.log(v) == pytest.approx(log_v, rel=1e-12)
    for quantity, params in (("l2", {}), ("pi2k", {"k": 3}), ("qn", {}),
                             ("pattern", {"pattern": (0, 2)})):
        assert math.isfinite(predict(quantity, x, params).value), quantity


def test_predict_goldbach_even_only():
    with pytest.raises(ValueError):
        predict("goldbach_r", 10**6 + 1)
    assert predict("goldbach_r", 10**6).value > 0


def test_predict_validation():
    with pytest.raises(ValueError):
        predict("nonsense", 100)
    with pytest.raises(ValueError):
        predict("l2", 5)
    with pytest.raises(MathViolationError):
        Prediction("l2", 10, -1.0)


def test_historical_bounds_order():
    rep = historical_bounds(10**8)
    v = rep.values
    # progressively sharper sieve upper bounds
    assert v["brun_7200"] > v["brun_100"] > v["explicit_16alpha"]
    assert v["explicit_16alpha"] > v["riesel_vaughan"] > v["bombieri_davenport"]
    # multiplier race is chronological and decreasing in c
    cs = [row[3] for row in rep.multipliers]
    assert cs == sorted(cs, reverse=True)
    with pytest.raises(ValueError):
        historical_bounds(10)
