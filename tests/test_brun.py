import itertools
from fractions import Fraction

import numpy as np
import pytest

from primelab.brun import (
    _BrunSum,
    brun_extrapolate,
    brun_partial,
    brun_table_report,
    estimate_marks,
    format_sum,
)
from primelab.census import count_pairs_2k
from primelab.config import Config
from primelab.errors import CheckpointError
from primelab.scan import scan

from conftest import naive_sieve

# marks the long-double sum of earlier releases printed a wrong last digit at
ORACLE_MARKS = [36333, 96783, 10**5, 207386, 245275]


@pytest.fixture(scope="module")
def twin_pairs_1e6():
    ps = naive_sieve(10**6 + 2)
    s = set(ps)
    return [p for p in ps if p + 2 in s and p <= 10**6]


def _pair_sum(pairs) -> Fraction:
    # binary splitting keeps the exact denominators balanced
    if len(pairs) <= 1:
        return sum((Fraction(2 * p + 2, p * (p + 2)) for p in pairs),
                   Fraction(0))
    mid = len(pairs) // 2
    return _pair_sum(pairs[:mid]) + _pair_sum(pairs[mid:])


def _round64(x: Fraction) -> Fraction:
    """x > 0 rounded to the nearest 64-bit significand, ties to even."""
    e = 0
    while x >= Fraction(2) ** (e + 64):
        e += 1
    while x < Fraction(2) ** (e + 63):
        e -= 1
    return round(x / Fraction(2) ** e) * Fraction(2) ** e


def _rows(rows):
    return [(r.limit, r.sum, format_sum(r.sum), r.pair_count) for r in rows]


def test_raw_sum_vs_fraction_oracle(twin_pairs_1e6):
    # exact rational arithmetic at 1e2; [3,5] and [5,7] both contribute
    pairs = [p for p in twin_pairs_1e6 if p <= 100]
    exact = sum(Fraction(1, p) + Fraction(1, p + 2) for p in pairs)
    rows = brun_partial(100)
    assert rows[-1].pair_count == len(pairs) == 8
    assert abs(float(rows[-1].sum) - float(exact)) < 1e-12
    assert float(exact) == pytest.approx(1.3310, abs=5e-5)


def test_smallest_member_convention():
    # both (3,5) and (5,7) are in scope at limit 5
    rows = brun_partial(5)
    assert rows[-1].pair_count == 2
    want = 1 / 3 + 1 / 5 + 1 / 5 + 1 / 7
    assert float(rows[-1].sum) == pytest.approx(want, abs=1e-15)


def test_pair_count_matches_census(twin_pairs_1e6):
    marks = [10**3, 10**4, 10**5, 10**6]
    rows = brun_partial(10**6, marks)
    census = count_pairs_2k(1, 10**6, marks)
    assert [(r.limit, r.pair_count) for r in rows] == list(census.rows)
    assert rows[-1].pair_count == len(twin_pairs_1e6)


def test_known_decade_values():
    rows = brun_partial(10**5, [10**3, 10**4, 10**5])
    got = {r.limit: float(r.sum) for r in rows}
    assert got[10**3] == pytest.approx(1.518032, abs=1e-6)
    assert got[10**4] == pytest.approx(1.616894, abs=1e-6)
    assert got[10**5] == pytest.approx(1.672800, abs=1e-6)


def test_exact_oracle(twin_pairs_1e6, rng):
    # N/2**128 <= S < (N + 2*pairs)/2**128, and the printed string reads
    # back to the 64-bit value nearest the exact sum S
    # and on both sides of each edge of the kernel's 2**16-odd chunks
    edges = {131072 * k + d for k in range(1, 8) for d in range(-2, 5)}
    marks = sorted(set(rng.sample(range(5, 10**6 + 1), 40)) | set(ORACLE_MARKS)
                   | edges)
    exact, done = Fraction(0), 0
    for r in brun_partial(10**6, marks):
        upto = [p for p in twin_pairs_1e6[done:] if p <= r.limit]
        exact += _pair_sum(upto)
        done += len(upto)
        assert r.pair_count == done
        assert r.sum <= exact < r.sum + Fraction(2 * r.pair_count, 2**128)
        assert _round64(Fraction(format_sum(r.sum))) == _round64(exact), \
            r.limit


def test_order_invariance_of_mark_sets(rng):
    # same limit, different checkpoint structure: identical final sum
    a = brun_partial(2 * 10**5)[-1]
    marks = sorted(rng.sample(range(10, 2 * 10**5), 20)) + [2 * 10**5]
    b = brun_partial(2 * 10**5, marks)[-1]
    assert _rows([a]) == _rows([b])


def test_segment_and_thread_invariance():
    # integer sums: not a bit moves with segment size, threads or stride
    marks = [10**3, 54321, 3 * 10**5]
    want = _rows(brun_partial(3 * 10**5, marks))
    for seg, threads, stride in itertools.product(
            (1 << 10, 1 << 12, None), (1, 2, 8), (1 << 14, 1 << 23, None)):
        cfg = Config(threads=threads) if seg is None else \
            Config(segment_bytes=seg, threads=threads)
        kw = {} if stride is None else {"checkpoint_stride": stride}
        assert _rows(brun_partial(3 * 10**5, marks, cfg=cfg, **kw)) == want
    # past 2**23 the stride splits the default-segment run into chunks
    limit = 9 * 10**6
    want = _rows(brun_partial(limit))
    for threads in (1, 2, 8):
        got = brun_partial(limit, cfg=Config(threads=threads),
                           checkpoint_stride=1 << 23)
        assert _rows(got) == want


def test_accumulator_merge_matches_single_pass():
    # states of [2, a) and [a, limit] merge by addition into the state of
    # the whole range
    kernel = _BrunSum(10**5, (10**3, 10**4, 10**5))
    cfg = Config(segment_bytes=1 << 10)
    whole = scan(2, 10**5 + 1, kernel, cfg)
    for a in (1000, 4096, 50002):
        parts = kernel.merge(scan(2, a, kernel, cfg),
                             scan(a, 10**5 + 1, kernel, cfg))
        assert parts.tolist() == whole.tolist()


def test_format_sum_round_trip():
    rows = brun_partial(10**4)
    text = format_sum(rows[-1].sum)
    assert text == "1.6168935574322006462"
    assert format_sum(Fraction(text)) == text
    assert format_sum(_round64(rows[-1].sum)) == text
    assert format_sum(Fraction(1, 3)) == "0.33333333333333333334"
    assert format_sum(2) == "2."


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="needs the x86 80-bit long double")
def test_format_sum_matches_numpy_long_double(rng):
    # numpy prints an 80-bit long double by the same shortest-digits rule
    for i in range(2000):
        m = rng.randrange(1 << 63, 1 << 64) if i % 4 else 1 << 63
        e = rng.randrange(-70, 5)
        x = np.ldexp(np.longdouble(m), e - 63)
        assert format_sum(Fraction(m) * Fraction(2) ** (e - 63)) == \
            np.format_float_positional(x, unique=True)


def test_extrapolation_shape():
    rows = brun_partial(10**6)
    est = brun_extrapolate(rows[-1].sum, 10**6)
    # the printed sum extrapolates to the same value as the exact one
    assert brun_extrapolate(format_sum(rows[-1].sum), 10**6) == est
    # 4*alpha/log(1e6) = 0.19114 correction
    assert float(est) - float(rows[-1].sum) == pytest.approx(0.191136,
                                                             abs=1e-5)
    assert float(est) == pytest.approx(1.902160, abs=3e-4)
    with pytest.raises(ValueError):
        brun_extrapolate(rows[-1].sum, 100)  # below the trusted floor
    for bad in ("nan", "inf", "-inf", "-0.5", "x"):
        with pytest.raises(ValueError):
            brun_extrapolate(bad, 10**6)


def test_interrupted_resume_bit_exact(tmp_path, monkeypatch):
    import primelab.scan as scan_mod
    path = str(tmp_path / "brun.jsonl")
    cfg = Config(segment_bytes=1 << 16)
    calls = {"n": 0}
    orig = scan_mod.write_checkpoint

    def bomb(*a, **k):
        calls["n"] += 1
        orig(*a, **k)
        if calls["n"] == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(scan_mod, "write_checkpoint", bomb)
    with pytest.raises(KeyboardInterrupt):
        brun_partial(3 * 10**6, [10**6, 3 * 10**6], cfg=cfg,
                     checkpoint_path=path, checkpoint_stride=1 << 20)
    monkeypatch.setattr(scan_mod, "write_checkpoint", orig)

    resumed = brun_partial(3 * 10**6, [10**6, 3 * 10**6], cfg=cfg,
                           checkpoint_path=path, checkpoint_stride=1 << 20)
    # identical to an uninterrupted run, chunked or not
    fresh = brun_partial(3 * 10**6, [10**6, 3 * 10**6], cfg=cfg,
                         checkpoint_path=str(tmp_path / "fresh.jsonl"),
                         checkpoint_stride=1 << 20)
    plain = brun_partial(3 * 10**6, [10**6, 3 * 10**6], cfg=cfg)
    assert _rows(resumed) == _rows(fresh) == _rows(plain)


def test_resume_rejects_other_marks(tmp_path):
    path = str(tmp_path / "brun.jsonl")
    brun_partial(10**6, [10**4, 10**6], checkpoint_path=path)
    with pytest.raises(CheckpointError, match="marks"):
        brun_partial(10**6, [10**3, 10**5, 10**6], checkpoint_path=path)
    # a rerun with the same marks still resumes the finished run
    rows = brun_partial(10**6, [10**4, 10**6], checkpoint_path=path)
    assert [r.pair_count for r in rows] == [205, 8169]


def test_table_report_contents():
    rows = brun_partial(2 * 10**5, sorted({2 * 10**5}
                                          | set(estimate_marks(2 * 10**5))))
    rep = brun_table_report(rows)
    assert rep["extrapolation"] == "conjecture-conditional"
    sel = next(r for r in rep["rows"] if r.limit == 2 * 10**5)
    assert sel.published_by == "Selmer"
    # extrapolated estimate lands inside Selmer's published error band
    assert abs(float(sel.extrapolated)
               - 1.901) <= sel.published_error + 1e-3
    assert rep["reference"].value == "1.9021605831"
    assert brun_table_report([]) == {**rep, "rows": []}


def test_domain_errors():
    with pytest.raises(ValueError):
        brun_partial(4)
    with pytest.raises(ValueError):
        brun_partial(100, [0])
    with pytest.raises(ValueError):
        brun_partial(100, [200])  # checkpoint beyond limit
    with pytest.raises(ValueError, match="2\\*\\*62"):
        brun_partial(2**62 - 2)  # past the int64 limb domain
