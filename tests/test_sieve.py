import random
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelab.config import Config
from primelab.sieve import (
    _MR_PSI,
    INT64_BOUND,
    _odd_count,
    check_window,
    composite_run,
    factorize_64,
    fill_segment,
    is_prime_64,
    iter_primes,
    iter_segments,
    odd_prime_flags,
    primes_array,
    prp_test,
    small_primes,
)

from conftest import naive_is_prime, naive_sieve


def test_small_primes_against_naive():
    assert list(small_primes(10**4)) == naive_sieve(10**4)


def test_small_primes_same_with_larger_table_cached(monkeypatch):
    import primelab.sieve as sieve
    bounds = (0, 1, 2, 3, 4, 10, 96, 97, 98, 1000, 9973, 10**4)
    cold = {}
    for b in bounds:
        monkeypatch.setattr(sieve, "_small_prime_cache", {})
        cold[b] = small_primes(b).tolist()
    monkeypatch.setattr(sieve, "_small_prime_cache", {})
    big = small_primes(10**5)
    for b in bounds:
        warm = small_primes(b)
        assert warm.dtype == np.int64
        assert warm.tolist() == cold[b], b
        if b >= 2:
            with pytest.raises(ValueError):
                warm[0] = 4  # the cached table is shared, so read-only
    with pytest.raises(ValueError):
        big[-1] = 4


def test_small_primes_edges():
    assert list(small_primes(2)) == [2]
    assert list(small_primes(3)) == [2, 3]
    assert list(small_primes(1)) == []


def test_primes_array_vs_naive(primes_1e6):
    got = primes_array(10**6)
    assert got.tolist() == primes_1e6


def test_iter_primes_crosses_segments(primes_1e6):
    cfg = Config(segment_bytes=1 << 10)  # tiny segments, many boundaries
    assert list(iter_primes(3 * 10**4, cfg)) == [p for p in primes_1e6
                                                 if p <= 3 * 10**4]


def test_segment_counts_sum_to_pi(primes_1e6):
    cfg = Config(segment_bytes=1 << 12)
    total = sum(seg.count() for seg in iter_segments(10**6, cfg))
    assert total == len(primes_1e6)


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3000))
def test_fill_segment_window_matches_naive(lo2, width):
    lo = 2 * (lo2 // 2) + 2  # even, >= 2
    hi = lo + width
    base = small_primes(max(3, int(hi**0.5) + 1))
    bits = fill_segment(lo, hi, base)
    odds = [n for n in range(lo + 1, hi, 2)]
    assert len(bits) == len(odds)
    for flag, n in zip(bits, odds):
        assert bool(flag) == naive_is_prime(n), n


def slice_loop_fill(lo, hi, base_primes):
    """The earlier kernel: one slice assignment per base prime."""
    n = _odd_count(lo, hi)
    bits = np.ones(n, dtype=bool)
    if n == 0:
        return bits
    top = isqrt(hi - 1)
    ps = base_primes[(base_primes > 2) & (base_primes <= top)]
    if len(ps):
        starts = np.maximum(ps * ps, ((lo + ps) // ps) * ps)
        starts = np.where(starts % 2 == 0, starts + ps, starts)
        idx = (starts - lo - 1) >> 1
        for i, p in zip(idx, ps):
            if i < n:
                bits[i::p] = False
    return bits


FULL_SEGMENT_ODDS = Config().segment_odds  # 4 MiB: 2**22 odds
HIGHEST_LO = 10**15


@pytest.fixture(scope="module")
def base_1e15():
    """Primes up to sqrt(1e15 + one segment), built apart from small_primes."""
    bound = isqrt(HIGHEST_LO + 2 * FULL_SEGMENT_ODDS) + 1
    odd = 2 * np.flatnonzero(odd_prime_flags(bound)).astype(np.int64) + 1
    return np.concatenate(([2], odd))


# lo is drawn decade by decade up to 1e15, which keeps most windows low
# enough for the slow oracle; widths run from 1 odd to a full segment
_lo = st.integers(1, 15).flatmap(
    lambda e: st.integers(max(1, 10 ** (e - 1) // 2), 10**e // 2)).map(
    lambda h: 2 * h)
_width = st.integers(0, 22).flatmap(
    lambda e: st.integers(1, min(2**e, FULL_SEGMENT_ODDS)))


@settings(max_examples=150)
@given(lo=_lo, n=_width, reuse=st.booleans(), seed=st.integers(0, 2**32))
@example(lo=2, n=FULL_SEGMENT_ODDS, reuse=False, seed=0)  # lo < p*p
@example(lo=900, n=40, reuse=True, seed=1)  # 31**2 inside the window
@example(lo=10**12, n=FULL_SEGMENT_ODDS, reuse=True, seed=2)
# the last odd is 65537 * 15258557: its least factor sits at the threshold
# and crosses it off on its 64th hit in the window
@example(lo=65537 * 15258557 + 1 - 2 * FULL_SEGMENT_ODDS, n=FULL_SEGMENT_ODDS,
         reuse=False, seed=5)
@example(lo=HIGHEST_LO, n=FULL_SEGMENT_ODDS, reuse=False, seed=3)
@example(lo=HIGHEST_LO - 2, n=1, reuse=False, seed=4)
def test_fill_segment_bit_identical_to_slice_loop(base_1e15, lo, n, reuse,
                                                   seed):
    hi = lo + 2 * n
    want = slice_loop_fill(lo, hi, base_1e15)
    if reuse:
        rnd = np.random.default_rng(seed)
        buf = rnd.random(n + int(rnd.integers(0, 64))) < 0.5  # stale bits
        got = fill_segment(lo, hi, base_1e15, out=buf)
        assert np.shares_memory(got, buf)
    else:
        got = fill_segment(lo, hi, base_1e15)
    assert len(got) == n
    assert np.array_equal(got, want)
    rnd = random.Random(seed)
    for i in {0, n - 1, *(rnd.randrange(n) for _ in range(8))}:
        assert bool(got[i]) == sympy.isprime(lo + 1 + 2 * i), lo + 1 + 2 * i


def test_fill_segment_rejects_windows_past_int64():
    top = isqrt(INT64_BOUND)
    hi = INT64_BOUND - top  # the least hi with hi + isqrt(hi - 1) >= 2**63
    check_window(hi - 1)
    for bad in (hi, INT64_BOUND + 20):
        with pytest.raises(ValueError, match="int64"):
            check_window(bad)
        # rejected before the three-billion-wide base table check runs
        with pytest.raises(ValueError, match="int64"):
            fill_segment(bad - 11 & ~1, bad, np.array([2, 3], dtype=np.int64))


def test_fill_segment_base_table_check(monkeypatch):
    import primelab.sieve as sieve

    def bomb(n):
        raise AssertionError("is_prime_64 called")

    monkeypatch.setattr(sieve, "is_prime_64", bomb)
    lo, hi = 10**6, 10**6 + 4000  # isqrt(hi - 1) = 1001, largest prime 997
    want = [naive_is_prime(v) for v in range(lo + 1, hi, 2)]
    full = np.array(naive_sieve(1001), dtype=np.int64)
    for cache in ({}, {10**4: small_primes(10**4)}):
        monkeypatch.setattr(sieve, "_small_prime_cache", cache)
        # complete, ending below isqrt(hi - 1): accepted
        assert fill_segment(lo, hi, full).tolist() == want
        for drop in (1, 2, len(full) // 2, len(full) - 1):
            with pytest.raises(ValueError, match="too small"):
                fill_segment(lo, hi, np.delete(full, drop))
        with pytest.raises(ValueError, match="too small"):
            fill_segment(8, 16, full[:1])  # isqrt(15) = 3 is missing


def test_odd_prime_flags_layout(prime_set_1e6):
    flags = odd_prime_flags(10**5)
    for i in (0, 1, 2, 3, 17, 49999):
        n = 2 * i + 1
        assert bool(flags[i]) == (n in prime_set_1e6)


def test_is_prime_64_exhaustive_small(prime_set_1e6):
    for n in range(2 * 10**5):
        assert is_prime_64(n) == (n in prime_set_1e6), n


def test_is_prime_64_known_pseudoprimes():
    # strong-pseudoprime classics and Carmichael numbers
    for n in (341, 561, 1729, 25326001, 3215031751):
        assert not is_prime_64(n)
    assert is_prime_64(2**61 - 1)  # Mersenne prime
    with pytest.raises(ValueError):
        is_prime_64(2**64)  # out of the deterministic witness domain


def test_is_prime_64_rejects_each_psi():
    # psi_k is the least strong pseudoprime to the first k prime bases, so
    # the test must go on to base k + 1 for n = psi_k itself
    for k, psi in enumerate(_MR_PSI, start=1):
        if psi < 2**64:
            assert not is_prime_64(psi), (k, psi)
            assert not sympy.isprime(psi)


@given(st.integers(min_value=2, max_value=2**64 - 1))
def test_is_prime_64_vs_sympy(n):
    assert is_prime_64(n) == sympy.isprime(n)


def test_prp_matches_deterministic_below_64():
    rnd = random.Random(7)
    for _ in range(300):
        n = rnd.randrange(3, 10**6) | 1
        assert prp_test(n) == is_prime_64(n)


def test_prp_large_known():
    assert prp_test(2**127 - 1)  # Lucas' Mersenne prime
    assert not prp_test(2**127 + 1)
    assert not prp_test(2**67 - 1)  # Cole's Mersenne composite
    assert prp_test(10**20 + 39)


@given(st.integers(min_value=2, max_value=2**40))
def test_factorize_recomposes(n):
    f = factorize_64(n)
    prod = 1
    for p, e in f.factors:
        assert is_prime_64(p)
        prod *= p**e
    assert prod == n
    assert list(f.factors) == sorted(f.factors)


def test_factorize_counts():
    f = factorize_64(2**5 * 3**2 * 97)
    assert f.as_dict() == {2: 5, 3: 2, 97: 1}
    assert f.big_omega == 8
    assert f.small_omega == 3


def test_factorize_semiprime_64():
    p, q = 4294967291, 4294967279  # both prime, product near 2**64
    f = factorize_64(p * q)
    assert f.as_dict() == {q: 1, p: 1}


def test_composite_run():
    run = composite_run(5)
    assert len(run) == 5
    assert run == list(range(run[0], run[0] + 5))
    for v in run:
        assert not is_prime_64(v)


def test_composite_run_big_guard():
    with pytest.raises(ValueError):
        composite_run(21)
    run = composite_run(25, allow_big=True)
    assert len(run) == 25 and all(not sympy.isprime(v) for v in run[:3])
