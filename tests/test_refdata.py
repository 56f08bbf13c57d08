from decimal import Decimal

import mpmath
import sympy

from primelab import refdata
from primelab.refdata import (
    BRUN_ESTIMATES,
    BRUN_REFERENCE,
    GAP_778,
    GAP_1132,
    GOLDBACH_SMALL_TABLE,
    L2_MINUS_PI2,
    PI2_BY_DECADE,
    PI_BY_DECADE,
    RECORD_TWINS,
    RefValue,
    TWIN_BOUND_MULTIPLIERS,
    all_tables,
)
from primelab.sieve import is_prime_64


def test_every_refvalue_cites():
    def walk(obj):
        if isinstance(obj, RefValue):
            assert obj.citation and isinstance(obj.citation, str)
        elif isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v)

    walk(all_tables())


def test_tables_are_read_only():
    import types
    assert isinstance(PI2_BY_DECADE, types.MappingProxyType)
    assert isinstance(L2_MINUS_PI2, types.MappingProxyType)
    assert isinstance(BRUN_ESTIMATES, tuple)
    assert isinstance(RECORD_TWINS, tuple)


def test_decade_table_keys():
    decades = [10**k for k in range(3, 15)]  # 1e3 through 1e14
    assert sorted(PI2_BY_DECADE) == decades
    assert PI2_BY_DECADE[10**8].value == 440312
    counts = [PI2_BY_DECADE[d].value for d in decades]
    assert counts == sorted(counts)


def test_l2_table_against_decades():
    assert L2_MINUS_PI2[10**3].value == 11
    assert L2_MINUS_PI2[10**7].value == -226
    assert set(L2_MINUS_PI2) <= set(PI2_BY_DECADE)


def test_brun_reference_strings_parse():
    assert Decimal(BRUN_REFERENCE.value) > Decimal("1.9")
    for year, bound, est, err, who in BRUN_ESTIMATES:
        assert 1900 < year < 2010 and bound >= 10**5
        assert 1.8 < est < 2.0 and who
        assert err is None or err >= 0  # the newest entry omits its error


def test_multiplier_race_is_decreasing():
    from fractions import Fraction

    def as_float(text):
        head = text.split("=")[0].strip().rstrip(".")
        return float(Fraction(head)) if "/" in head else float(head)

    cs = [as_float(str(c)) for _, c, _ in TWIN_BOUND_MULTIPLIERS]
    assert cs == sorted(cs, reverse=True)
    years = [y for y, _, _ in TWIN_BOUND_MULTIPLIERS]
    assert years == sorted(years)


def test_gap_records_are_plausible():
    p778, g778 = GAP_778.value
    p1132, g1132 = GAP_1132.value
    assert g778 == 778 and g1132 == 1132
    assert p778 == 42_842_283_925_351
    assert p1132 > p778
    # the smaller record is within 64-bit reach: its endpoints are prime
    assert is_prime_64(p778)
    assert not any(is_prime_64(p778 + k) for k in range(2, 778, 2))
    assert is_prime_64(p778 + 778)


def test_goldbach_small_table_is_consistent():
    for n, pairs in GOLDBACH_SMALL_TABLE.items():
        assert n % 2 == 0
        for a, b in pairs:
            assert a + b == n
            for part in (a, b):
                assert part == 1 or is_prime_64(part)


def test_pi_by_decade():
    assert list(PI_BY_DECADE) == [10**k for k in range(1, 21)]
    for x, ref in PI_BY_DECADE.items():
        if x <= 10**10:  # sympy.primepi takes under a second this far
            assert sympy.primepi(x) == ref.value, x
        # pi(x) > x / ln x for x >= 17 (Rosser and Schoenfeld 1962), and
        # pi(x) < li(x) far past 10**20
        assert ref.value < mpmath.li(x), x
        assert x < 17 or x / mpmath.log(x) < ref.value, x


def test_record_twins_rows():
    for k, base, exponent, digits, year, who in RECORD_TWINS:
        assert base in (2, 10) and k > 0 and exponent > 0
        assert digits > 2000 and 1980 < year < 2010 and who


def test_all_tables_keys_stable():
    tables = all_tables()
    for key in ("pi2_by_decade", "l2_minus_pi2", "brun_estimates",
                "record_twins", "twin_constant", "twin_constant_variant"):
        assert key in tables
