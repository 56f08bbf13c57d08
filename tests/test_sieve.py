import functools
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelab.census import count_primes
from primelab.config import Config
from primelab.refdata import PI_BY_DECADE
from primelab.sieve import (
    _MR_PSI,
    BLOCK,
    INT64_BOUND,
    _odd_count,
    check_window,
    factorize_64,
    fill_segment,
    is_prime_64,
    iter_primes,
    odd_prime_flags,
    odd_prime_words,
    prime_values,
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


# every bound to 400, and the squares of the primes just past the wheel
# primes 3 .. 17, each +- 1
EDGE_BOUNDS = [*range(401),
               *(q * q + d for q in (17, 19, 23) for d in (-1, 0, 1))]


def test_small_primes_edges(monkeypatch):
    import primelab.sieve as sieve
    assert list(small_primes(2)) == [2]
    assert list(small_primes(3)) == [2, 3]
    assert list(small_primes(1)) == []
    for b in EDGE_BOUNDS:
        monkeypatch.setattr(sieve, "_small_prime_cache", {})  # a cold build
        got = small_primes(b)
        assert got.dtype == np.int64 and not got.flags.writeable, b
        assert got.tolist() == naive_sieve(b), b


def test_small_primes_block_edges(monkeypatch):
    # small_primes builds [2, 2 BLOCK), then [2k BLOCK, 2(k + 1) BLOCK):
    # bounds on and beside the first two edges, and one across eight
    # blocks, each built cold and then served as a prefix view
    import primelab.sieve as sieve
    edges = [2 * k * BLOCK + d for k in (1, 2) for d in range(-2, 3)]
    wide = 14 * BLOCK + 12345
    want = np.array(naive_sieve(wide), dtype=np.int64)
    for b in edges + [wide]:
        monkeypatch.setattr(sieve, "_small_prime_cache", {})
        got = small_primes(b)
        assert got.dtype == np.int64 and not got.flags.writeable, b
        assert np.array_equal(
            got, want[:np.searchsorted(want, b, side="right")]), b
    table = small_primes(wide)  # the cached table
    for b in edges:
        view = small_primes(b)
        assert np.shares_memory(view, table), b
        assert np.array_equal(view, table[:len(view)]), b
        assert len(view) == np.searchsorted(want, b, side="right"), b


def test_small_primes_count_published_pi(monkeypatch):
    # pi(10**k) from the published table, which shares no code with the
    # sieve
    import primelab.sieve as sieve
    for k in range(1, 9):
        monkeypatch.setattr(sieve, "_small_prime_cache", {})
        assert len(small_primes(10**k)) == PI_BY_DECADE[10**k].value, k


def test_small_primes_memory(monkeypatch):
    # A cold build to 1e7 holds its int64 table of 1.25506 x / ln x
    # entries (Rosser and Schoenfeld's bound on pi(x)), the block buffer
    # of BLOCK + 1 flags and one block's primes, the first block's being
    # the most.  A byte per odd (5 MB) beside the table would not fit.
    import primelab.sieve as sieve
    sieve._wheel_pattern()
    monkeypatch.setattr(sieve, "_small_prime_cache", {})
    bound = 10**7
    tracemalloc.start()
    try:
        got = small_primes(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first_block = int(np.searchsorted(got, 2 * BLOCK))
    table = 8 * (int(1.25506 * bound / np.log(bound)) + 1)
    assert peak < table + BLOCK + 1 + 8 * first_block + (1 << 18)


def test_primes_array_vs_naive(primes_1e6):
    got = primes_array(10**6)
    assert got.tolist() == primes_1e6


def test_iter_primes_crosses_segments(primes_1e6):
    cfg = Config(segment_bytes=1 << 10)  # tiny segments, many boundaries
    assert list(iter_primes(3 * 10**4, cfg)) == [p for p in primes_1e6
                                                 if p <= 3 * 10**4]


def test_segment_counts_sum_to_pi(primes_1e6):
    cfg = Config(segment_bytes=1 << 12)
    assert count_primes(2, 10**6, cfg) == len(primes_1e6)


@pytest.mark.parametrize("cfg", [
    Config(segment_bytes=1 << 10), None,
    Config(segment_bytes=1 << 10, threads=2),  # segments on the pool
], ids=["1024", "None", "1024-threads2"])
def test_count_primes_intervals_vs_naive(primes_1e6, cfg, rng):
    edges = [(0, 1), (-5, 1), (2, 2), (-3, 2), (0, 3), (2, 3), (3, 3),
             (3, 2), (10, 9), (100, 50), (1, 10**5), (4, 2)]
    lows = [rng.randrange(-10, 3 * 10**5) for _ in range(20)]
    drawn = [(a, a + rng.randrange(-5, 10**5)) for a in lows]
    for a, b in edges + drawn:
        want = max(0, bisect_right(primes_1e6, b) - bisect_left(primes_1e6, a))
        got = count_primes(a, b, cfg)
        assert type(got) is int and got == want, (a, b)


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3000))
@example(lo2=0, width=1)  # [2, 3): no odds, and prime_values gives [2]
def test_fill_segment_window_matches_naive(lo2, width):
    lo = 2 * (lo2 // 2) + 2  # even, >= 2
    hi = lo + width
    base = small_primes(max(3, int(hi**0.5) + 1))
    bits = fill_segment(lo, hi, base)
    odds = [n for n in range(lo + 1, hi, 2)]
    assert len(bits) == len(odds)
    for flag, n in zip(bits, odds):
        assert bool(flag) == naive_is_prime(n), n
    want = [2] * (lo == 2) + [n for n in odds if naive_is_prime(n)]
    assert prime_values(lo, bits).tolist() == want


def test_fill_segment_from_zero_matches_naive():
    # from lo = 0, bit 0 is the odd 1, which the wheel pattern leaves set
    primes = set(naive_sieve(600))
    base = np.array(naive_sieve(24), dtype=np.int64)
    for hi in range(1, 601):
        assert fill_segment(0, hi, base).tolist() == [
            v in primes for v in range(1, hi, 2)], hi


def test_fill_segment_from_zero_into_stale_buffer():
    n = FULL_SEGMENT_ODDS
    hi = 2 * n
    base = np.array(naive_sieve(isqrt(hi - 1)), dtype=np.int64)
    buf = np.random.default_rng(23).random(n + 1) < 0.5  # stale bits
    buf[0] = True
    got = fill_segment(0, hi, base, out=buf)
    assert np.shares_memory(got, buf) and len(got) == n
    want = np.zeros(n, dtype=bool)
    want[(np.array(naive_sieve(hi), dtype=np.int64)[1:] - 1) >> 1] = True
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lo", [-2, -1, 7])
def test_fill_segment_rejects_odd_or_negative_lo(lo):
    with pytest.raises(ValueError, match="even and >= 0"):
        fill_segment(lo, 200, small_primes(20))


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
    """Primes up to sqrt(1e15 + one segment), built apart from fill_segment,
    which makes small_primes and odd_prime_flags."""
    bound = isqrt(HIGHEST_LO + 2 * FULL_SEGMENT_ODDS) + 1
    return np.array(naive_sieve(bound), dtype=np.int64)


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
# three cache blocks and a partial fourth, into an out exactly n long
@example(lo=10**11, n=3 * BLOCK + 12345, reuse=True, seed=70)
# the last odd's least factor is the last prime blocked (16381), the
# first one sliced over the whole segment (16411), and the last one
# sliced (65521); 16381's out is longer than n, 65521's exactly n long
@example(lo=16381 * 61046341 + 1 - 2 * FULL_SEGMENT_ODDS, n=FULL_SEGMENT_ODDS,
         reuse=True, seed=6)
@example(lo=16411 * 60934759 + 1 - 2 * FULL_SEGMENT_ODDS, n=FULL_SEGMENT_ODDS,
         reuse=False, seed=8)
@example(lo=65521 * 15262283 + 1 - 2 * FULL_SEGMENT_ODDS, n=FULL_SEGMENT_ODDS,
         reuse=True, seed=63)
# the last odd, 100003 * 10000019, is the large prime 100003's 21st hit:
# n - 1 = 20 * 100003, so the cut-off of pass 20, (n - 1) // 20, is that
# prime itself
@example(lo=100003 * (10000019 - 40) - 1, n=20 * 100003 + 1, reuse=True,
         seed=9)
# large primes on both sides of isqrt(lo) = 65598: nine from 65537 have
# p*p <= lo, and the squares of 65599 .. 65657 (eight primes) lie inside
# the window
@example(lo=65599**2 - 1 - 2 * 1000, n=FULL_SEGMENT_ODDS, reuse=False, seed=7)
# wheel primes 3 .. 17 inside the segment, whose pattern bits are set back
@example(lo=2, n=8, reuse=True, seed=10)
@example(lo=4, n=20, reuse=False, seed=11)
@example(lo=16, n=1, reuse=False, seed=12)  # 17 alone
# hi <= 289: 17 is past isqrt(hi - 1) but still in the pattern
@example(lo=2, n=143, reuse=False, seed=13)
@example(lo=16, n=136, reuse=True, seed=14)
@example(lo=4, n=142, reuse=True, seed=15)
# lo / 2 at, just below and just above a multiple of the wheel period
@example(lo=2 * 255255 * 3, n=1000, reuse=False, seed=16)
@example(lo=2 * 255255 * 3 - 2, n=1000, reuse=True, seed=17)
@example(lo=2 * 255255 * 3 + 2, n=1000, reuse=False, seed=18)
@example(lo=2 * 255255 * 3917740 - 2, n=255255 + 3, reuse=True, seed=19)
@example(lo=2 * 255255 * 3917740 + 2, n=2, reuse=False, seed=20)
# longer than two wheel periods: the pattern is copied in whole periods
@example(lo=2 * (255255 * 7 - 5), n=3 * 255255 + 7, reuse=True, seed=21)
@example(lo=2 * 255255 * 40 + 2 * 255254, n=2 * 255255 + 1, reuse=False,
         seed=22)
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


def test_fill_segment_memory_does_not_grow_with_the_base_table():
    # Near 1e14 a segment reads 664,579 base primes, 5.1 MiB of int64.
    # The large ones are taken 2**16 at a time, so with a prebuilt base
    # and an out buffer a call holds a few arrays of one chunk, 0.5 MiB
    # each.
    lo = 10**14
    n = FULL_SEGMENT_ODDS
    base = small_primes(isqrt(lo + 2 * n))
    assert 8 * len(base) > 5 * 2**20
    out = np.empty(n + 1, dtype=bool)
    want = fill_segment(lo, lo + 2 * n, base, out=out).copy()
    tracemalloc.start()
    try:
        got = fill_segment(lo, lo + 2 * n, base, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 2 * 2**20


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_fill_segment_large_chunk_edges(chunk, monkeypatch):
    # chunk edges land on both sides of the first prime with p*p > lo;
    # each window is narrow enough that primes from 64 on hit it fewer
    # than 64 times, so it has a large tier
    import primelab.sieve as sieve
    monkeypatch.setattr(sieve, "_LARGE_CHUNK", chunk)
    base = np.array(naive_sieve(2000), dtype=np.int64)
    for lo, hi in ((2, 8000), (8000, 12_000), (20_000, 30_000),
                   (360_000, 361_000), (10**6, 10**6 + 7777)):
        assert np.array_equal(fill_segment(lo, hi, base),
                              slice_loop_fill(lo, hi, base)), (lo, hi)


def test_large_hits_match_a_loop():
    import primelab.sieve as sieve
    rnd = np.random.default_rng(17)
    for case in range(400):
        n = int(rnd.integers(1, 500))
        ps = np.sort(rnd.integers(1, 2 * n + 2, size=int(rnd.integers(1, 30))))
        ps = np.repeat(ps, rnd.integers(1, 4, size=len(ps)))  # repeats
        if case % 4 == 0:
            ps += n  # every modulus past the end
        m = int(rnd.integers(0, len(ps) + 1))
        # the first m start below their modulus, the rest anywhere
        starts = np.concatenate((rnd.integers(0, ps[:m]),
                                 rnd.integers(0, 3 * n, size=len(ps) - m)))
        want = Counter((i, p) for s, p in zip(starts.tolist(), ps.tolist())
                       for i in range(s, n, p))
        got = Counter()
        for idx, mods in sieve._large_hits(starts.copy(), ps.copy(), n, m):
            assert len(idx) == len(mods)
            pairs = list(zip(idx.tolist(), mods.tolist()))
            # only the spare slot n lies past the end, and only when m > 0
            assert all(i < n or i == n and m for i, _ in pairs), case
            got.update((i, p) for i, p in pairs if i < n)
        assert got == want, case


def test_fill_segment_rejects_short_out():
    base = small_primes(20)
    assert len(fill_segment(100, 200, base, out=np.empty(50, bool))) == 50
    with pytest.raises(ValueError, match="shorter"):
        fill_segment(100, 200, base, out=np.empty(49, bool))


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
        # the wheel primes come from a pattern, not the table, but a
        # table without them is still too small
        for short in ([2, 3], [2, 5]):
            with pytest.raises(ValueError, match="too small"):
                fill_segment(30, 40, np.array(short, dtype=np.int64))
        assert fill_segment(30, 40, full[:3]).tolist() == [
            naive_is_prime(v) for v in range(31, 40, 2)]


def test_wheel_pattern_read_only_and_built_on_first_use():
    import primelab.sieve as sieve
    pat = sieve._wheel_pattern()
    odd = 2 * np.arange(2 * 255255) + 1
    assert np.array_equal(pat, np.gcd(odd, 3 * 5 * 7 * 11 * 13 * 17) == 1)
    assert sieve._wheel_pattern() is pat
    with pytest.raises(ValueError):
        pat[0] = False
    # a fresh import leaves it unbuilt
    code = ("import primelab, primelab.sieve as s; "
            "print(s._wheel_pattern.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(sieve.__file__))
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


def test_odd_prime_flags_layout(prime_set_1e6, monkeypatch):
    import primelab.sieve as sieve
    flags = odd_prime_flags(10**5)
    for i in (0, 1, 2, 3, 17, 49999):
        n = 2 * i + 1
        assert bool(flags[i]) == (n in prime_set_1e6)
    for b in EDGE_BOUNDS:
        monkeypatch.setattr(sieve, "_small_prime_cache", {})
        got = odd_prime_flags(b)
        primes = set(naive_sieve(b))
        assert got.dtype == bool and got.flags.writeable, b
        assert got.tolist() == [2 * i + 1 in primes
                                for i in range((b + 1) // 2)], b
        again = odd_prime_flags(b)
        assert not np.shares_memory(got, again), b  # a fresh table each call


def _unpack_words(words, limit):
    assert words.dtype == np.dtype("<u8")
    n = (limit + 1) // 2
    assert words.size == -(-n // 64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    assert not bits[n:].any()  # the last word is padded with 0
    return bits[:n].astype(bool)


def test_odd_prime_words_layout(monkeypatch):
    import primelab.sieve as sieve
    for b in EDGE_BOUNDS:
        monkeypatch.setattr(sieve, "_small_prime_cache", {})
        primes = set(naive_sieve(b))
        assert _unpack_words(odd_prime_words(b), b).tolist() == [
            2 * i + 1 in primes for i in range((b + 1) // 2)], b
    # two whole default segments and part of a third
    b = 4 * Config().segment_odds + 2 * 37 + 1
    assert (_unpack_words(odd_prime_words(b), b) == odd_prime_flags(b)).all()


@pytest.mark.parametrize("segment_bytes", [1 << 10, 3 << 10])
def test_odd_prime_words_small_segments(segment_bytes, monkeypatch):
    # many segments, each packed into the words at its own offset and
    # unpacked into the flags; Config() defaults to segment_bytes, an
    # explicit keyword still wins, and the base table is built cold
    import primelab.sieve as sieve
    monkeypatch.setattr(sieve, "Config",
                        functools.partial(Config, segment_bytes=segment_bytes))
    monkeypatch.setattr(sieve, "_small_prime_cache", {})
    primes = set(naive_sieve(10**5))
    for b in (10**5, 10**5 - 1, 2 * segment_bytes, 2 * segment_bytes + 1):
        want = [2 * i + 1 in primes for i in range((b + 1) // 2)]
        assert _unpack_words(odd_prime_words(b), b).tolist() == want, b
        assert odd_prime_flags(b).tolist() == want, b


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
