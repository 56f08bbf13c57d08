import random
from fractions import Fraction

import numpy as np
import pytest

from primelab.brun import (
    BrunAccumulator,
    brun_extrapolate,
    brun_partial,
    brun_table_report,
    estimate_marks,
    format_longdouble,
    parse_longdouble,
)
from primelab.census import count_pairs_2k
from primelab.config import Config
from primelab.errors import CheckpointError

from conftest import naive_sieve


@pytest.fixture(scope="module")
def twin_pairs_1e6():
    ps = naive_sieve(10**6 + 2)
    s = set(ps)
    return [p for p in ps if p + 2 in s and p <= 10**6]


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


def test_order_invariance_of_mark_sets(rng):
    # same limit, different checkpoint structure: identical final sum
    a = brun_partial(2 * 10**5)[-1]
    marks = sorted(rng.sample(range(10, 2 * 10**5), 20)) + [2 * 10**5]
    b = brun_partial(2 * 10**5, marks)[-1]
    assert abs(float(a.sum) - float(b.sum)) < 1e-14
    assert a.pair_count == b.pair_count


def test_segment_and_thread_invariance():
    # thread count must not move a single bit (shard size is fixed by the
    # segment size, not the thread count); changing the segment size
    # reorders the Kahan blocks and may wiggle the last ulp only
    one = brun_partial(3 * 10**5, cfg=Config(threads=1))[-1]
    four = brun_partial(3 * 10**5, cfg=Config(threads=4))[-1]
    assert format_longdouble(one.sum) == format_longdouble(four.sum)
    assert one.pair_count == four.pair_count

    small = brun_partial(3 * 10**5, cfg=Config(segment_bytes=1 << 12))[-1]
    assert abs(float(small.sum) - float(one.sum)) < 1e-14
    assert small.pair_count == one.pair_count


def test_accumulator_merge_matches_single_pass():
    # feeding per-decade deltas through the Kahan accumulator reproduces
    # the one-shot run
    rows = brun_partial(10**5, [10**3, 10**4, 10**5])
    acc = BrunAccumulator()
    prev_sum, prev_pairs = np.longdouble(0), 0
    for r in rows:
        acc.merge(r.sum - prev_sum, r.pair_count - prev_pairs, r.limit)
        prev_sum, prev_pairs = r.sum, r.pair_count
    whole = brun_partial(10**5)[-1]
    assert acc.pair_count == whole.pair_count
    assert acc.limit_done == 10**5
    assert abs(float(acc.sum) - float(whole.sum)) < 1e-17


def test_longdouble_round_trip():
    rows = brun_partial(10**4)
    text = format_longdouble(rows[-1].sum)
    back = parse_longdouble(text)
    assert back == rows[-1].sum
    assert format_longdouble(back) == text


def test_extrapolation_shape():
    rows = brun_partial(10**6)
    est = brun_extrapolate(rows[-1].sum, 10**6)
    # 4*alpha/log(1e6) = 0.19114 correction
    assert float(est) - float(rows[-1].sum) == pytest.approx(0.191136,
                                                             abs=1e-5)
    assert float(est) == pytest.approx(1.902160, abs=3e-4)
    with pytest.raises(ValueError):
        brun_extrapolate(rows[-1].sum, 100)  # below the trusted floor


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
    # uninterrupted run under the same checkpoint regime: byte identical
    fresh = brun_partial(3 * 10**6, [10**6, 3 * 10**6], cfg=cfg,
                         checkpoint_path=str(tmp_path / "fresh.jsonl"),
                         checkpoint_stride=1 << 20)
    assert [(r.limit, format_longdouble(r.sum), r.pair_count)
            for r in resumed] == \
        [(r.limit, format_longdouble(r.sum), r.pair_count) for r in fresh]
    # and an unchunked run agrees to summation-order tolerance
    plain = brun_partial(3 * 10**6, [10**6, 3 * 10**6], cfg=cfg)
    for a, b in zip(resumed, plain):
        assert abs(float(a.sum) - float(b.sum)) < 1e-14
        assert a.pair_count == b.pair_count


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
    assert abs(parse_longdouble(sel.extrapolated)
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
