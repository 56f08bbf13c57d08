import math
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primelab.sieve as sieve_mod
from primelab.census import count_primes
from primelab.config import DEFAULT_SEGMENT_BYTES, Config
from primelab.gaps import (
    first_occurrence,
    hunt_gap,
    interval_prime_count,
    missing_gaps,
    normalized_gap_extremes,
    primes_between_squares,
    scan_gaps,
    short_interval_above_square,
)

from conftest import naive_sieve, naive_window


def oracle_walk(limit):
    """Next-prime walk: first occurrences and running maxima."""
    ps = naive_sieve(limit)
    firsts = {}
    records = []
    best = 0
    for a, b in zip(ps, ps[1:]):
        g = b - a
        if g not in firsts:
            firsts[g] = a
        if g > best:
            best = g
            records.append((a, g))
    return firsts, records


@pytest.fixture(scope="module")
def walk_1e5():
    return oracle_walk(10**5)


def test_first_occurrences_match_oracle(walk_1e5):
    firsts, _ = walk_1e5
    scan = scan_gaps(10**5)
    assert scan.first_occurrences == firsts


def test_first_occurrence_every_realized_gap(walk_1e5):
    firsts, _ = walk_1e5
    for g, p in sorted(firsts.items()):
        rec = first_occurrence(g, 10**5)
        assert rec is not None and rec.p == p, g


def test_first_occurrence_unrealized():
    assert first_occurrence(778, 10**6) is None
    with pytest.raises(ValueError):
        first_occurrence(7, 10**6)  # odd gaps above 1 are impossible


def test_maximal_records_match_oracle():
    _, records = oracle_walk(10**6)
    scan = scan_gaps(10**6)
    assert [(r.p, r.gap) for r in scan.maximal] == records


def test_gap_sum_telescopes(walk_1e5):
    ps = naive_sieve(10**5)
    scan = scan_gaps(10**5)
    # sum of all gaps = last prime - 2, a telescoping identity
    gaps = [b - a for a, b in zip(ps, ps[1:])]
    assert sum(gaps) == ps[-1] - 2
    assert max(gaps) == scan.maximal[-1].gap


def test_missing_gaps_vs_direct():
    ps = naive_sieve(10**6)
    seen = {b - a for a, b in zip(ps, ps[1:])}
    want = [g for g in range(2, 101, 2) if g not in seen]
    assert missing_gaps(10**6, 100) == want == [94]


# the last prime below it, 155921, starts the first gap of 86, a maximal
# one and the largest gap / log(p), and its successor lies past it
GAP_LIMIT = 155922


@pytest.fixture(scope="module")
def gaps_oracle():
    """Every gap (p, q - p) with p <= GAP_LIMIT, from a plain sieve."""
    ps = naive_sieve(2 * GAP_LIMIT)
    return [(p, q - p) for p, q in zip(ps, ps[1:]) if p <= GAP_LIMIT]


@pytest.mark.parametrize("threads", [1, 2])
# 15700-byte segments end at 31402, inside the maximal gap 31397 -> 31469
@pytest.mark.parametrize("segment_bytes",
                         [1 << 10, 15700, 1 << 16, DEFAULT_SEGMENT_BYTES])
def test_gap_statistics_match_oracle(gaps_oracle, segment_bytes, threads):
    cfg = Config(segment_bytes=segment_bytes, threads=threads)
    below = [(p, g) for p, g in gaps_oracle if p < GAP_LIMIT]
    firsts, records = {}, []
    for p, g in below:
        firsts.setdefault(g, p)
        if not records or g > records[-1][1]:
            records.append((p, g))
    scan = scan_gaps(GAP_LIMIT, cfg=cfg)
    assert scan.first_occurrences == firsts
    assert [(r.p, r.gap) for r in scan.maximal] == records
    # 36 stops the scan early: every even gap up to it occurs below 1e4
    for max_gap in (36, 100):
        assert missing_gaps(GAP_LIMIT, max_gap, cfg=cfg) == \
            [g for g in range(2, max_gap + 1, 2) if g not in firsts]
    vals = [(g / math.log(p), p, g) for p, g in gaps_oracle]
    low = min(vals, key=lambda v: v[0])  # the first of equal values
    high = max(vals, key=lambda v: v[0])
    ex = normalized_gap_extremes(GAP_LIMIT, cfg=cfg)
    assert (ex.min_witness, ex.max_witness) == (low[1:], high[1:])
    assert ex.min_value == pytest.approx(low[0], rel=1e-14)
    assert ex.max_value == pytest.approx(high[0], rel=1e-14)


def test_segment_invariance():
    a = scan_gaps(10**5, cfg=Config(segment_bytes=1 << 10))
    b = scan_gaps(10**5, cfg=Config(segment_bytes=1 << 20))
    assert a.first_occurrences == b.first_occurrences
    assert a.maximal == b.maximal


def test_interval_count_oracle():
    # primes in (x, x + x^theta]
    ps = naive_sieve(2 * 10**5)
    x = 10**5
    top = x + int(math.floor(x ** (38 / 61)))
    want = sum(1 for p in ps if x < p <= top)
    res = interval_prime_count(x, Fraction(38, 61))
    assert res.count == want
    assert res.expected > 0
    assert res.ratio == pytest.approx(res.count / res.expected)


def test_interval_float_theta_reads_as_decimal():
    # 0.55 is 11/20, not the 53-bit binary fraction nearest to it
    assert interval_prime_count(1000, 0.55) == \
        interval_prime_count(1000, Fraction(11, 20))


def test_windows_past_int64_rejected_before_base_table(monkeypatch):
    def no_table(bound):
        raise AssertionError(f"base table of {bound} built")

    monkeypatch.setattr(sieve_mod, "small_primes", no_table)
    with pytest.raises(ValueError, match="int64"):
        count_primes(2**63 + 10, 2**63 + 20)
    with pytest.raises(ValueError, match="int64"):
        hunt_gap(100, 2**63 + 20, start=2**63)


def test_interval_theta_validation():
    with pytest.raises(ValueError):
        interval_prime_count(100, Fraction(3, 2))
    with pytest.raises(ValueError):
        interval_prime_count(100, 0)


def test_primes_between_squares_empty_to_1e5():
    assert primes_between_squares(10**5) == []


def test_primes_between_squares_brute(prime_set_1e6):
    # directly confirm the first handful of square windows hold a prime
    for n in range(1, 900):
        assert any(m in prime_set_1e6
                   for m in range(n * n + 1, (n + 1) ** 2)), n


def test_short_interval_above_square():
    frac = short_interval_above_square(200, 1.6)
    assert frac == 1.0  # every window that size holds a prime at this scale
    for e in (0.9, math.inf, math.nan, 400.0):  # 10.0**400 overflows
        with pytest.raises(ValueError):
            short_interval_above_square(10, e)


def test_normalized_extremes_known_min():
    ex = normalized_gap_extremes(10**5)
    # the twin pair closest to the top gives the smallest g/log(p)
    assert ex.min_witness[1] == 2
    assert ex.max_witness == (31397, 72)
    assert ex.min_value == pytest.approx(2 / math.log(ex.min_witness[0]))


def test_hunt_gap_matches_scan(walk_1e5):
    firsts, _ = walk_1e5
    for g in (2, 14, 36, 52):
        rec = hunt_gap(g, 10**5)
        assert rec is not None and rec.p == firsts[g]
    assert hunt_gap(778, 10**5) is None


def test_hunt_gap_resume(tmp_path, walk_1e5):
    firsts, _ = walk_1e5
    path = str(tmp_path / "hunt.jsonl")
    # force several checkpoint writes with a tiny stride
    rec1 = hunt_gap(52, 10**5, checkpoint_path=path,
                    checkpoint_stride=1 << 12)
    rec2 = hunt_gap(52, 10**5, checkpoint_path=path,
                    checkpoint_stride=1 << 12)  # resume of a finished task
    assert rec1.p == rec2.p == firsts[52]


@pytest.fixture(scope="module")
def base_1e12():
    """Primes up to the root of every window the hunt test sieves."""
    return naive_sieve(isqrt(10**12 + 2**24) + 1)


def oracle_hunt(gap, start, stop, base):
    """First prime p in [start, stop] whose successor is p + gap."""
    ps = naive_window(start, stop + 1, base)
    after = naive_window(stop + 1, stop + 2001, base)
    assert after, "no prime within 2000 past the stop"
    for p, q in zip(ps, ps[1:] + after[:1]):
        if q - p == gap:
            return p
    return None


# where a segment boundary goes, relative to a gap p < q near the height:
# the composite run's first or last odd opens or closes a segment, or p
# opens one, or q closes one
_BOUNDARY = {"run_first": lambda p, q: p + 1, "run_last": lambda p, q: q - 1,
             "prime_first": lambda p, q: p - 1, "prime_last": lambda p, q: q + 1}


@settings(max_examples=40)
@given(lo=st.integers(10**6, 10**12),
       gap=st.sampled_from([2, 4, 6, 8, 30, 100, 250, 400]),
       log_bytes=st.integers(10, 22),
       anchor=st.sampled_from([None, *_BOUNDARY]),
       before=st.booleans(), width=st.integers(1, 2 * 10**5))
# a segment opens with the composite run of the widest gap near 1e9 (152)
@example(lo=10**9, gap=400, log_bytes=10, anchor="run_first", before=True,
         width=5000)
@example(lo=10**12, gap=100, log_bytes=22, anchor="run_last", before=True,
         width=1000)
@example(lo=2, gap=100, log_bytes=10, anchor=None, before=False,
         width=4 * 10**5)  # the segment at 2, then 1 KiB segments
@example(lo=2, gap=6, log_bytes=10, anchor=None, before=False, width=100)
def test_hunt_gap_matches_oracle(base_1e12, lo, gap, log_bytes, anchor,
                                 before, width):
    span = 2 << log_bytes  # integers per segment
    start = lo
    stop = start + width
    if anchor is not None:
        # the first gap of this size near lo, else the widest there, is
        # the one hunted, with a segment boundary at one of its ends
        near = naive_window(lo, lo + 20000, base_1e12)
        pairs = list(zip(near, near[1:]))
        p, q = next(((p, q) for p, q in pairs if q - p == gap),
                    max(pairs, key=lambda pq: pq[1] - pq[0]))
        gap, edge = q - p, _BOUNDARY[anchor](p, q)
        start = edge - span if before and edge - span >= 2 else edge
        stop = q + width
    want = oracle_hunt(gap, start, stop, base_1e12)
    rec = hunt_gap(gap, stop, start=start,
                   cfg=Config(segment_bytes=1 << log_bytes))
    assert (rec and rec.p) == want
