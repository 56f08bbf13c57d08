import itertools
import tracemalloc
from bisect import bisect_right
from collections import Counter
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from primelab.census import (
    CountTable,
    Pattern,
    admissible,
    count_pairs_2k,
    count_pattern,
    count_square_plus_one,
    count_twin_almost_primes,
    isolated_progression_witnesses,
    non_twin_prime_run,
    perfect_half_sum_scan,
    twin_form_search,
)
from primelab.config import Config
from primelab.errors import ResourceLimitError
from primelab.sieve import factorize_64, is_prime_64

from conftest import naive_is_prime, naive_sieve


def oracle_admissible(offsets) -> bool:
    """A pattern is admissible iff no prime q <= k covers all residues."""
    k = len(offsets)
    for q in [2, 3, 5, 7, 11, 13]:
        if q > k:
            break
        if len({o % q for o in offsets}) == q:
            return False
    return True


def oracle_count(offsets, limit, prime_set) -> int:
    return sum(1 for n in range(2, limit + 1)
               if all((n + o) in prime_set for o in offsets))


def even_patterns(max_size, max_offset):
    pool = list(range(2, max_offset + 1, 2))
    for size in range(0, max_size):
        for tail in itertools.combinations(pool, size):
            yield (0,) + tail


@pytest.fixture(scope="module")
def prime_set_padded():
    return set(naive_sieve(10**5 + 16))


def test_all_small_patterns_vs_brute_force(prime_set_padded):
    """Every admissible pattern of size <= 4 with offsets <= 12, at 1e5."""
    checked = 0
    for offs in even_patterns(4, 12):
        if not oracle_admissible(offs):
            assert not admissible(offs)
            with pytest.raises(ValueError):
                count_pattern(offs, 10**5)
            continue
        assert admissible(offs)
        want = oracle_count(offs, 10**5, prime_set_padded)
        got = count_pattern(offs, 10**5).final_count
        assert got == want, offs
        checked += 1
    # 1 single + 6 pairs + 11 triples + 8 quadruples survive admissibility
    assert checked == 26


def test_marks_at_chunk_edges_vs_brute_force():
    # the census ANDs flags in chunks of 2**16 odds, so with one segment
    # from 2 the odd 131072k + 1 ends chunk k - 1: marks on both sides
    limit = 3 * 10**5
    marks = sorted({131072 * k + d for k in (1, 2) for d in range(-2, 5)}
                   | {limit})
    prime_set = set(naive_sieve(limit + 16))
    for offs in [(0,), (0, 2), (0, 2, 6), (0, 4, 6, 10)]:
        starts = [n for n in range(2, limit + 1)
                  if all((n + o) in prime_set for o in offs)]
        want = [(m, bisect_right(starts, m)) for m in marks]
        assert list(count_pattern(offs, limit, marks).rows) == want, offs


def test_known_constellation_counts():
    # classic desk values below 1e5
    assert count_pattern((0, 2), 10**5).final_count == 1224
    assert count_pattern((0, 2, 6), 10**5).final_count == 259
    assert count_pattern((0, 4, 6), 10**5).final_count == 248
    assert count_pattern((0, 2, 6, 8), 10**5).final_count == 38
    assert count_pattern((0,), 10**5).final_count == 9592  # pi(1e5)


def test_cousin_pairs_small(prime_set_padded):
    # gap-4 pairs: (3,7), (7,11), (13,17), ... 9 of them up to 100
    t = count_pairs_2k(2, 100)
    assert t.final_count == 9


def test_pairs_2k_equals_pattern():
    for k in (1, 2, 3):
        a = count_pairs_2k(k, 10**4).final_count
        b = count_pattern((0, 2 * k), 10**4).final_count
        assert a == b


@given(st.sets(st.integers(min_value=1, max_value=20), min_size=0,
               max_size=4))
def test_admissible_matches_oracle(tail):
    offs = tuple(sorted({0} | {2 * t for t in tail}))
    assert admissible(offs) == oracle_admissible(offs)


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern((1, 3))  # odd offsets
    with pytest.raises(ValueError):
        Pattern((2, 4))  # must start at 0
    with pytest.raises(ValueError):
        Pattern(())
    with pytest.raises(ValueError):
        count_pattern((0, 2, 4), 100)  # covers mod 3


def test_rows_monotone_and_smallest_member_convention():
    t = count_pairs_2k(1, 10**5, checkpoints=[10, 100, 1000, 10**4, 10**5])
    counts = [c for _, c in t.rows]
    assert counts == sorted(counts)
    # smallest-member convention: pair (p, p+2) counts when p <= limit
    assert count_pairs_2k(1, 5).final_count == 2  # (3,5) and (5,7)
    assert count_pairs_2k(1, 4).final_count == 1  # (3,5) only


def test_segment_size_invariance_bit_exact():
    marks = [10**3, 10**4, 5 * 10**4, 10**5]
    small = count_pattern((0, 2), 10**5, marks, cfg=Config(segment_bytes=1 << 10))
    big = count_pattern((0, 2), 10**5, marks, cfg=Config(segment_bytes=1 << 20))
    assert small.rows == big.rows


def test_thread_invariance():
    marks = [10**4, 10**5]
    one = count_pattern((0, 2, 6), 10**5, marks, cfg=Config(threads=1))
    four = count_pattern((0, 2, 6), 10**5, marks, cfg=Config(threads=4))
    assert one.rows == four.rows


def test_twin_almost_dominates_twins():
    marks = [10**3, 10**4, 10**5]
    pi12 = count_twin_almost_primes(10**5, marks)
    pi2 = count_pairs_2k(1, 10**5, marks)
    for (m1, c12), (m2, c2) in zip(pi12.rows, pi2.rows):
        assert m1 == m2 and c12 >= c2


def test_twin_almost_vs_brute_force():
    def omega_le_2(n):
        return factorize_64(n).big_omega <= 2

    want = sum(1 for p in naive_sieve(10**4) if p > 2 and omega_le_2(p + 2))
    assert count_twin_almost_primes(10**4).final_count == want


def test_square_plus_one_vs_brute_force(prime_set_padded):
    want_prime = sum(1 for m in range(1, 317)
                     if m * m + 1 <= 10**5 and (m * m + 1) in prime_set_padded)
    assert count_square_plus_one(10**5, "prime").final_count == want_prime

    def omega(n, big):
        f = factorize_64(n)
        return f.big_omega if big else f.small_omega

    want_semi = sum(1 for m in range(1, 317)
                    if m * m + 1 <= 10**5 and omega(m * m + 1, True) <= 2)
    assert count_square_plus_one(10**5, "bigomega_le_2").final_count == want_semi
    want_om = sum(1 for m in range(1, 317)
                  if m * m + 1 <= 10**5 and omega(m * m + 1, False) <= 2)
    assert count_square_plus_one(10**5, "omega_le_2").final_count == want_om
    with pytest.raises(ValueError):
        count_square_plus_one(10**5, "nonsense")


_SQUARE_TOP = 10**7


@pytest.fixture(scope="module")
def square_oracle():
    """(m*m + 1, prime?, omega, Omega) for every m*m + 1 <= 1e7, by sympy."""
    rows = []
    for m in range(1, isqrt(_SQUARE_TOP - 1) + 1):
        f = sympy.factorint(m * m + 1)
        rows.append((m * m + 1, sympy.isprime(m * m + 1), len(f),
                     sum(f.values())))
    return rows


def _square_limits():
    top = isqrt(_SQUARE_TOP - 1)
    return st.one_of(st.integers(2, _SQUARE_TOP),
                     st.integers(1, top).map(lambda m: m * m + 1),
                     st.integers(2, top).map(lambda m: m * m))


@given(limit=_square_limits(), block=st.sampled_from([None, 1, 7, 64, 1000]),
       data=st.data())
@example(limit=2, block=None, data=None)
@example(limit=4, block=None, data=None)
@example(limit=5, block=None, data=None)
@example(limit=10, block=1, data=None)
@example(limit=17, block=None, data=None)
@example(limit=26, block=2, data=None)
@example(limit=37, block=None, data=None)
@example(limit=_SQUARE_TOP, block=None, data=None)
@example(limit=_SQUARE_TOP, block=97, data=None)
def test_square_plus_one_sieve_vs_sympy(square_oracle, limit, block, data):
    import primelab.census as census
    marks = [limit]
    if data is not None:
        marks += data.draw(st.lists(st.integers(1, limit), max_size=6))
    marks = sorted(set(marks))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # blocks of m this long, not 4 MiB
            mp.setattr(census, "DEFAULT_SEGMENT_BYTES", block)
        for mode, ok in (("prime", lambda r: r[1]),
                         ("omega_le_2", lambda r: r[2] <= 2),
                         ("bigomega_le_2", lambda r: r[3] <= 2)):
            want = tuple((mark, sum(1 for r in square_oracle
                                    if r[0] <= mark and ok(r)))
                         for mark in marks)
            got = count_square_plus_one(limit, mode, marks).rows
            assert got == want, mode


@pytest.mark.parametrize("chunk", [1, 3, 64, None])
def test_class_hits_match_a_loop(chunk, monkeypatch):
    # chunk edges of the large classes fall anywhere among the moduli
    import primelab.census as census
    if chunk is not None:
        monkeypatch.setattr(census, "_LARGE_CHUNK", chunk)
    rnd = np.random.default_rng(29)
    for case in range(200):
        n = int(rnd.integers(1, 6000))
        m0 = int(rnd.integers(1, 10**6))
        k = int(rnd.integers(1, 40))
        mods = np.sort(rnd.integers(1, 2 * n + 200, size=k))
        first = rnd.integers(0, m0 + 3 * n, size=k)
        want = Counter((i, p) for f, p in zip(first.tolist(), mods.tolist())
                       for i in range(n) if m0 + i >= f
                       and (m0 + i - f) % p == 0)
        got = Counter()
        for hit, p in census._class_hits(first, mods, m0, n):
            if isinstance(hit, slice):
                got.update((i, p) for i in range(n)[hit])
            else:
                assert (hit < n).all(), case
                got.update(zip(hit.tolist(), p.tolist()))
        assert got == want, case


def test_class_hits_memory_does_not_grow_with_the_roots():
    # 283,005 classes below 4e6, 2.2 MB of int64 each for first and
    # mods; the large ones are taken _LARGE_CHUNK at a time, so a block
    # of 2**20 holds a few arrays of one chunk, 0.5 MiB each.  Starts
    # over every class at once peaked at 5.9 MiB.
    import primelab.census as census
    mods, first = census._minus_one_roots(census.small_primes(4 * 10**6))
    assert len(mods) > 280_000
    n = 1 << 20
    tracemalloc.start()
    try:
        for hit, _ in census._class_hits(first, mods, 1 + 3 * n, n):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_square_plus_one_published_and_parent_counts():
    # primes m*m + 1 below 10**n, n = 1..12 (OEIS A083844)
    decades = [10**n for n in range(1, 13)]
    want = [2, 4, 10, 19, 51, 112, 316, 841, 2378, 6656, 18822, 54110]
    table = count_square_plus_one(10**12, "prime", decades)
    assert table.rows == tuple(zip(decades, want))
    # the per-m factorization loop this sieve replaced gave these
    for mode, c8, c10 in (("omega_le_2", 3867, 31310),
                          ("bigomega_le_2", 3666, 29911)):
        table = count_square_plus_one(10**10, mode, [10**8, 10**10])
        assert table.rows == ((10**8, c8), (10**10, c10)), mode


def test_square_plus_one_tests_no_candidate(monkeypatch):
    import primelab.census as census
    import primelab.sieve as sieve

    def bomb(*args):
        raise AssertionError("per-candidate test called")

    for mod in (census, sieve):
        for name in ("is_prime_64", "factorize_64"):
            monkeypatch.setattr(mod, name, bomb, raising=False)
    assert count_square_plus_one(10**8, "prime").final_count == 841
    assert count_square_plus_one(10**8, "omega_le_2").final_count == 3867
    assert count_square_plus_one(10**8, "bigomega_le_2").final_count == 3666


def test_square_plus_one_rejects_limits_past_int64(capsys):
    from primelab.cli import main
    for mode in ("prime", "omega_le_2", "bigomega_le_2"):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            count_square_plus_one(2**63, mode)
    assert main(["census", "square1", "--limit", str(2**63)]) == 2
    assert "2**63" in capsys.readouterr().err


def test_twin_members_mod_six(prime_set_padded):
    for p in naive_sieve(10**4):
        if p > 5 and (p + 2) in prime_set_padded:
            assert p % 6 == 5


def test_count_table_final_count():
    # CSV and JSON bytes are checked by test_cli_golden.py
    t = CountTable("demo", ((10, 2), (100, 8)))
    assert t.final_count == 8


# --- exercise-style scans ---------------------------------------------------

def test_perfect_half_sum():
    # (5 + 7)/2 = 6 = perfect; nothing else below 1e6
    assert perfect_half_sum_scan(10**6) == [(5, 7)]


@pytest.mark.parametrize("limit", [26, 46, 47, 88, 89, 10**4, 10**6])
def test_isolated_progression_witnesses(limit):
    want = [p for p in sympy.primerange(8, limit + 1) if p % 21 == 5]
    assert isolated_progression_witnesses(limit) == want
    for p in want:
        assert p % 42 == 5
        assert not sympy.isprime(p - 2) and not sympy.isprime(p + 2)


def _oracle_runs(search_limit: int):
    """(first run of non-twin primes per length, longest run) over the
    primes <= search_limit, by a plain loop over sympy's primes."""
    first, run = {}, []
    for p in sympy.primerange(2, search_limit + 1):
        if sympy.isprime(p - 2) or sympy.isprime(p + 2):
            run = []
        else:
            run.append(p)
            first.setdefault(len(run), list(run))
    return first, max(first, default=0)


@pytest.mark.parametrize("m", range(1, 9))
def test_non_twin_prime_run_vs_oracle(m):
    first, _ = _oracle_runs(10**3)
    assert non_twin_prime_run(m) == first[m]


@pytest.mark.parametrize("m, search_limit, want", [
    (3, 89, [79, 83, 89]),
    (2, 53, [47, 53]),
])
def test_non_twin_prime_run_ends_at_the_limit(m, search_limit, want):
    assert _oracle_runs(search_limit)[0][m] == want
    assert non_twin_prime_run(m, search_limit) == want


@pytest.mark.parametrize("m, search_limit",
                         [(3, 88), (2, 52), (5, 300), (1, 1)])
def test_non_twin_prime_run_limit_reached(m, search_limit):
    with pytest.raises(ResourceLimitError) as exc:
        non_twin_prime_run(m, search_limit)
    longest = _oracle_runs(search_limit)[1]
    assert longest < m
    assert exc.value.progress == {"search_limit": search_limit,
                                  "longest_run": longest}


def test_twin_form_search_vs_direct():
    hits = twin_form_search(1, 500, 2, 10)
    want = [k for k in range(1, 501)
            if naive_is_prime(k * 1024 - 1) and naive_is_prime(k * 1024 + 1)]
    assert [h.k for h in hits] == want
    assert all(h.certified for h in hits)
    assert all(h.pair == (h.k * 1024 - 1, h.k * 1024 + 1) for h in hits)


@pytest.mark.parametrize("base,exponent",
                         [(2, 30), (10, 5), (2, 0), (2, 1), (10, 0)])
def test_presieve_matches_per_k_residues(base, exponent):
    from primelab.census import _PRESIEVE_BOUND, _presieve
    from primelab.sieve import small_primes
    # the reference tests every k against every q: k*b^e = +-1 (mod q)
    kv = np.arange(99_001, 101_501, dtype=np.int64)
    alive = np.ones(len(kv), dtype=bool)
    for q in map(int, small_primes(_PRESIEVE_BOUND)):
        r = (kv % q) * pow(base, exponent, q) % q
        alive &= ~((r == 1 % q) | (r == (q - 1) % q))
    got = _presieve(99_001, 101_500, base, exponent)
    assert np.array_equal(got, kv[alive])


def test_twin_form_search_validation():
    with pytest.raises(ValueError):
        twin_form_search(1, 10, 3, 5)
    assert twin_form_search(5, 4, 2, 5) == []
