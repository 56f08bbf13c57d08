"""The scan driver: interruption and resume, thread invariance, old files.

Every checkpointed job writes through scan.write_checkpoint, so one
fault-injection hook covers census, Brun, the gap scan and the gap hunt.
"""
import importlib
import importlib.util
import json
import random
import sys
import threading
from pathlib import Path

import pytest

import primelab.scan as scan_mod
from fractions import Fraction

from primelab.brun import _BrunSum, brun_partial, format_sum
from primelab.census import Pattern, _PatternCensus, count_pairs_2k
from primelab.checkpoint import read_latest
from primelab.config import Config
from primelab.errors import CheckpointError
from primelab.gaps import _GapHunt, _GapStats, hunt_gap, scan_gaps

from conftest import naive_sieve, naive_window

MARKS = [10**3, 5 * 10**4, 2 * 10**5]
STRIDE = 1 << 14  # 13 chunks below 2e5


def _census(path, threads=2):
    return count_pairs_2k(1, 2 * 10**5, MARKS,
                          cfg=Config(segment_bytes=1 << 10, threads=threads),
                          checkpoint_path=path, checkpoint_stride=STRIDE).rows


def _brun(path, threads=1):
    rows = brun_partial(2 * 10**5, MARKS,
                        cfg=Config(segment_bytes=1 << 10, threads=threads),
                        checkpoint_path=path, checkpoint_stride=STRIDE)
    return [(r.limit, r.sum, format_sum(r.sum), r.pair_count) for r in rows]


def _hunt(path, threads=1):
    # gap 86 first occurs at 155921, in the tenth chunk
    return hunt_gap(86, 2 * 10**5,
                    cfg=Config(segment_bytes=1 << 10, threads=threads),
                    checkpoint_path=path, checkpoint_stride=STRIDE)


def _hunt_trailing(path, threads=1):
    # the last prime below the stop is 155921; its successor lies past it
    return hunt_gap(86, 155950,
                    cfg=Config(segment_bytes=1 << 10, threads=threads),
                    checkpoint_path=path, checkpoint_stride=STRIDE)


def _gaps(path, threads=2):
    return scan_gaps(2 * 10**5,
                     cfg=Config(segment_bytes=1 << 10, threads=threads),
                     checkpoint_path=path, checkpoint_stride=STRIDE)


JOBS = {"census": _census, "brun": _brun, "hunt": _hunt,
        "hunt_trailing": _hunt_trailing, "gaps": _gaps}


class Crash(Exception):
    pass


@pytest.mark.parametrize("written", [True, False],
                         ids=["after_write", "before_write"])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_interrupt_at_any_chunk_then_resume(job, at, written, tmp_path,
                                            monkeypatch):
    run = JOBS[job]
    fresh = run(None)
    orig = scan_mod.write_checkpoint
    writes = []

    def counting(path, cp):
        writes.append(cp.range_done)
        orig(path, cp)

    monkeypatch.setattr(scan_mod, "write_checkpoint", counting)
    assert run(str(tmp_path / "whole.jsonl")) == fresh
    assert len(writes) >= 3 and writes == sorted(writes)
    k = {"first": 1, "middle": (len(writes) + 1) // 2, "last": len(writes)}[at]

    path = str(tmp_path / "cut.jsonl")
    calls = []

    def crash(path, cp):
        calls.append(cp)
        if len(calls) == k:
            if written:
                orig(path, cp)
            raise Crash
        orig(path, cp)

    monkeypatch.setattr(scan_mod, "write_checkpoint", crash)
    with pytest.raises(Crash):
        run(path)
    monkeypatch.setattr(scan_mod, "write_checkpoint", orig)
    assert run(path) == fresh
    assert run(path) == fresh  # and again, from the finished file


KERNELS = {"census": _PatternCensus, "brun": _BrunSum, "hunt": _GapHunt,
           "gaps": _GapStats}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("job", sorted(KERNELS))
def test_interrupt_inside_a_chunk_then_resume(job, threads, tmp_path,
                                              monkeypatch):
    # crashes in the kernel's segment at seeded random calls, mid-chunk
    # (8 segments per chunk), with the chunk's other segments on other
    # threads
    run, kernel = JOBS[job], KERNELS[job]
    fresh = run(None, threads)
    orig = kernel.segment
    lock = threading.Lock()
    calls, writes = [], []

    def counting(self, lo, hi, bits):
        with lock:
            calls.append(lo)
        return orig(self, lo, hi, bits)

    monkeypatch.setattr(kernel, "segment", counting)
    monkeypatch.setattr(scan_mod, "write_checkpoint",
                        lambda path, cp: writes.append(cp.range_done))
    assert run(str(tmp_path / "whole.jsonl"), threads) == fresh
    # a hunt on 2 threads may or may not reach a segment of its last
    # chunk, so the crash falls in an earlier one
    rng = random.Random(f"{job}/{threads}")
    monkeypatch.undo()
    for k, at in enumerate(rng.sample(
            sorted(lo for lo in calls if lo < writes[-2]), 3)):

        def crash(self, lo, hi, bits):
            if lo == at:
                raise Crash
            return orig(self, lo, hi, bits)

        monkeypatch.setattr(kernel, "segment", crash)
        path = str(tmp_path / f"cut{k}.jsonl")
        with pytest.raises(Crash):
            run(path, threads)
        monkeypatch.undo()
        cp = read_latest(path)
        assert cp is None or cp.range_done <= at
        assert run(path, threads) == fresh
        assert len(Path(path).read_text().splitlines()) == 1


def test_hunt_gap_thread_invariance(monkeypatch):
    ps = naive_sieve(2 * 10**5 + 100)
    firsts = {}
    for a, b in zip(ps, ps[1:]):
        firsts.setdefault(b - a, a)
    gaps = (1, 2, 36, 72, 86, 778)
    want = [firsts.get(g) for g in gaps] + [31397]
    # and above 1e9, where the hunt reads only the long composite runs
    high = naive_window(10**9, 10**9 + 2 * 10**5 + 2000, naive_sieve(31700))
    high_firsts = {}
    for a, b in zip(high, high[1:]):
        if a <= 10**9 + 2 * 10**5:
            high_firsts.setdefault(b - a, a)
    high_gaps = (2, 64, 100, 132, 200)
    want += [high_firsts.get(g) for g in high_gaps]
    tasks = _spy_tasks(monkeypatch)
    interval = sys.getswitchinterval()
    # 8 threads on short switches: segments cancelled or run after a hit
    # must never hide an earlier one
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 8):
            tasks[:] = []
            cfg = Config(segment_bytes=1 << 10, threads=threads)
            got = [hunt_gap(g, 2 * 10**5, cfg=cfg, checkpoint_stride=STRIDE)
                   for g in gaps]
            got.append(hunt_gap(72, 10**5, start=31000, cfg=cfg))
            got += [hunt_gap(g, 10**9 + 2 * 10**5, start=10**9, cfg=cfg,
                             checkpoint_stride=STRIDE) for g in high_gaps]
            assert [r and r.p for r in got] == want
            # every whole chunk runs 8 segment tasks, so a hit in one has
            # later ones to cancel
            whole = [len(c) for c in tasks if c[-1][1] - c[0][0] == STRIDE]
            assert whole and set(whole) == {8}
    finally:
        sys.setswitchinterval(interval)


# Checkpoint lines in the payload conventions of earlier releases, taken
# mid-run (range_done 81922) from the jobs above.
OLD_LINES = {
    "census": '{"payload": {"marks": [1000, 50000, 200000], "totals": '
              '["35", "705", "1030"]}, "range_done": 81922, '
              '"task_id": "pattern(0,2)@200000", "version": 1}',
    "brun": '{"payload": {"comp": "0.000000000000000000011011428314305904408", '
            '"pairs": "1030", "rows": [[1000, "1.5180324635595909886", 35], '
            '[50000, "1.6584642393664188941", 705]], '
            '"sum": "1.6685168005348234892"}, "range_done": 81922, '
            '"task_id": "brun@200000", "version": 1}',
    "hunt": '{"payload": {"carry": "81919"}, "range_done": 81922, '
            '"task_id": "gap_hunt(86)@200000", "version": 1}',
    "hunt_found": '{"payload": {"found": "155921"}, "range_done": 155650, '
                  '"task_id": "gap_hunt(86)@200000", "version": 1}',
}


@pytest.mark.parametrize("earlier", [0, 2])
@pytest.mark.parametrize("name", sorted(OLD_LINES))
def test_old_checkpoint_lines_resume(name, earlier, tmp_path):
    # earlier releases appended a line per chunk; only the last is read,
    # and the first write of this release leaves one line
    run = JOBS[name.removesuffix("_found")]
    path = tmp_path / "old.jsonl"
    old = json.loads(OLD_LINES[name])
    path.write_text("".join(json.dumps({**old, "range_done": 2 + k}) + "\n"
                            for k in range(earlier)) + OLD_LINES[name] + "\n")
    got, want = run(str(path)), run(None)
    # a hunt that holds its find has nothing left to scan or write
    lines = 1 + earlier if name == "hunt_found" else 1
    assert len(path.read_text().splitlines()) == lines
    if name != "brun":
        assert got == want
        return
    # the old long-double sums convert with an error below 2**-56
    assert [(l, c) for l, _, _, c in got] == [(l, c) for l, _, _, c in want]
    for (_, a, _, _), (_, b, _, _) in zip(got, want):
        assert abs(a - b) < Fraction(1, 2**56)


# The gap hunt's lines as this release writes them: the carried last
# prime mid-run, then the start of the gap, found in a segment (hunt) or
# past the stop by the successor lookup (hunt_trailing).
HUNT_LINES = {
    "hunt": ('{"payload": {"carry": "81919"}, "range_done": 81922, '
             '"task_id": "gap_hunt(86)@200000", "version": 1}',
             '{"payload": {"found": "155921"}, "range_done": 163842, '
             '"task_id": "gap_hunt(86)@200000", "version": 1}'),
    "hunt_trailing": ('{"payload": {"carry": "81919"}, "range_done": 81922, '
                      '"task_id": "gap_hunt(86)@155950", "version": 1}',
                      '{"payload": {"found": "155921"}, "range_done": 155951, '
                      '"task_id": "gap_hunt(86)@155950", "version": 1}'),
}


@pytest.mark.parametrize("name", sorted(HUNT_LINES))
def test_hunt_checkpoint_lines_pinned(name, tmp_path, monkeypatch):
    path = tmp_path / "hunt.jsonl"
    orig = scan_mod.write_checkpoint
    lines = []

    def spy(path, cp):
        lines.append(cp.to_json())
        orig(path, cp)

    monkeypatch.setattr(scan_mod, "write_checkpoint", spy)
    JOBS[name](str(path))
    assert len(lines) == 10  # chunks of STRIDE up to the find or the stop
    assert (lines[4], lines[-1]) == HUNT_LINES[name]
    assert path.read_text() == lines[-1] + "\n"  # the file keeps the last


@pytest.mark.parametrize("name, payload", [
    ("census", {"marks": MARKS}),
    ("brun", {"sum": "1.5", "comp": "0", "pairs": "x", "rows": []}),
    ("brun", {"marks": MARKS, "pairs": ["1", "2", "3"], "sums": ["x"]}),
    ("hunt", {"found": "p"}),
    ("gaps", {"last": "7", "firsts": [[2, "3"]], "maximal": [["3"]]}),
    ("gaps", {"last": "7", "firsts": {"2": "3"}, "maximal": []}),
])
def test_malformed_payload_is_checkpoint_error(name, payload, tmp_path):
    task = {"census": "pattern(0,2)@200000", "brun": "brun@200000",
            "hunt": "gap_hunt(86)@200000", "gaps": "gap_scan@199999"}[name]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"payload": payload, "range_done": 81922,
                                "task_id": task, "version": 1}) + "\n")
    with pytest.raises(CheckpointError, match="malformed"):
        JOBS[name](str(path))


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these names; a rename must fail here
    spans_py = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for table in (spans.SPANNED, spans.COUNTED):
        for layer, names in table.items():
            mod = importlib.import_module(f"primelab.{layer}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"{layer}.{name}"


def _spy_tasks(monkeypatch) -> list:
    """Record the tasks of every chunk scan() hands to run_sharded."""
    tasks = []
    real = scan_mod.run_sharded

    def spy(worker, parts, pool):
        tasks.append(list(parts))
        return real(worker, parts, pool)

    monkeypatch.setattr(scan_mod, "run_sharded", spy)
    return tasks


def _check_segment_tasks(chunks, lo, hi, span):
    # the chunks tile [lo, hi) in order, and a chunk's tasks are its
    # segments: span integers each from the chunk start, the last cut at
    # the chunk end
    ends = [c[0][0] for c in chunks] + [chunks[-1][-1][1]]
    assert (ends[0], ends[-1]) == (lo, hi)
    for parts, a, b in zip(chunks, ends, ends[1:]):
        assert parts == [(s, min(s + span, b)) for s in range(a, b, span)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_one_thread_pool_per_scan(monkeypatch, threads):
    # a scan of many chunks starts one pool (none on one thread), and
    # shuts it down before it returns
    pools = []

    class Counted(scan_mod.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(scan_mod, "ThreadPoolExecutor", Counted)
    tasks = _spy_tasks(monkeypatch)
    cfg = Config(segment_bytes=1 << 10, threads=threads)
    rows = brun_partial(2 * 10**5, cfg=cfg,
                        checkpoint_stride=4 * 2 * cfg.segment_odds)
    assert rows[-1].pair_count == 2160  # naive_sieve agrees
    assert len(tasks) > 20
    assert len(pools) == (threads > 1)
    assert all(p._shutdown for p in pools)


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_every_kernel_runs_one_task_per_segment(monkeypatch, threads):
    # Brun, the census, the gap scan and the gap hunt split a chunk alike,
    # whatever the thread count
    tasks = _spy_tasks(monkeypatch)
    cfg = Config(segment_bytes=1 << 10, threads=threads)
    span = 2 * cfg.segment_odds
    limit = 45 * span + 1000
    for stride in (1, 3, 7, 40):
        for run, hi in (
                (lambda: brun_partial(limit, cfg=cfg,
                                      checkpoint_stride=stride * span),
                 limit + 1),
                (lambda: count_pairs_2k(1, limit, cfg=cfg,
                                        checkpoint_stride=stride * span),
                 limit + 1),
                (lambda: scan_gaps(limit, cfg=cfg,
                                   checkpoint_stride=stride * span), limit),
                # no gap of 200 below the limit: the hunt scans it all
                (lambda: hunt_gap(200, limit, cfg=cfg,
                                  checkpoint_stride=stride * span),
                 limit + 1)):
            tasks[:] = []
            run()
            _check_segment_tasks(tasks, 2, hi, span)
            assert len(tasks[0]) == stride


def test_default_segments_are_one_task_each(monkeypatch):
    # 4 MiB segments, a chunk of one segment on 2 threads: one task, run
    # in the calling thread
    tasks = _spy_tasks(monkeypatch)
    cfg = Config(threads=2)
    span = 2 * cfg.segment_odds
    limit = 2 * span + 1  # [2, limit + 1) is two whole chunks
    rows = count_pairs_2k(1, limit, cfg=cfg, checkpoint_stride=span).rows
    assert tasks == [[(2, 2 + span)], [(2 + span, limit + 1)]]
    assert rows == count_pairs_2k(1, limit, cfg=Config()).rows


class _FirstHit(scan_mod.Kernel):
    """The lowest segment start at or past `at`, found segment by
    segment; it records every segment it is asked for, and blocks each
    segment but the hit's on `gate` when one is given."""

    task_id = "first_hit"

    def __init__(self, at, gate=None):
        self.at, self.gate = at, gate
        self.calls = []

    def empty(self):
        return None

    def segment(self, lo, hi, bits):
        self.calls.append(lo)
        if lo <= self.at < hi:
            return lo
        if self.gate is not None:
            assert self.gate.wait(30)
        return None

    def merge(self, acc, part):
        return part if acc is None else acc

    def done(self, state):
        return state is not None


@pytest.mark.parametrize("segments_per_chunk", [2, 10])
def test_early_stop_evaluates_no_later_segment(segments_per_chunk):
    # one thread: segments run as the driver asks for them, so none after
    # the hit runs, in its chunk or a later one
    cfg = Config(segment_bytes=1 << 10)
    span = 2 * cfg.segment_odds
    kernel = _FirstHit(2 + 3 * span + 5)
    got = scan_mod.scan(2, 2 + 10 * span, kernel, cfg,
                        stride=segments_per_chunk * span)
    assert got == 2 + 3 * span
    assert kernel.calls == [2 + k * span for k in range(4)]


def test_early_stop_cancels_segments_not_started(monkeypatch):
    # two threads, one chunk of 8 segments: the first holds the hit, and
    # every other segment blocks until the pool shuts down, so when the
    # driver sees the hit at most two more have started; closing the
    # results cancels the rest
    gate = threading.Event()

    class Gated(scan_mod.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            gate.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(scan_mod, "ThreadPoolExecutor", Gated)
    cfg = Config(segment_bytes=1 << 10, threads=2)
    span = 2 * cfg.segment_odds
    kernel = _FirstHit(2, gate)
    got = scan_mod.scan(2, 2 + 8 * span, kernel, cfg, stride=8 * span)
    assert got == 2
    assert 2 in kernel.calls
    assert set(kernel.calls) <= {2 + k * span for k in range(3)}


def test_results_identical_for_any_threads_and_stride():
    limit = 2 * 10**6
    marks = [1000, 123457, 10**6, 1234567, limit]
    want = None
    for threads in (1, 2, 3, 8):
        cfg = Config(segment_bytes=1 << 10, threads=threads)
        span = 2 * cfg.segment_odds
        for segments in (1, 4, 64):
            stride = segments * span
            rows = brun_partial(limit, marks, cfg=cfg, checkpoint_stride=stride)
            got = (count_pairs_2k(1, limit, marks, cfg=cfg,
                                  checkpoint_stride=stride).rows,
                   [(r.limit, r.sum, r.pair_count) for r in rows],
                   scan_gaps(limit, cfg=cfg, checkpoint_stride=stride))
            if want is None:
                want = got
            assert got == want, (threads, segments)
    assert want[0][-1] == (limit, 14871)  # pi2(2e6), independent of the runs


LOW_MARKS = MARKS[:2]  # every mark far below the limit of 2e5


def _low(job, path):
    cfg = Config(segment_bytes=1 << 10)
    if job == "census":
        return count_pairs_2k(1, 2 * 10**5, LOW_MARKS, cfg=cfg,
                              checkpoint_path=path,
                              checkpoint_stride=STRIDE).rows
    return brun_partial(2 * 10**5, LOW_MARKS, cfg=cfg, checkpoint_path=path,
                        checkpoint_stride=STRIDE)


@pytest.mark.parametrize("job", ["census", "brun"])
def test_scan_ends_at_the_last_mark(job, tmp_path):
    fresh = _low(job, None)
    assert [r[0] for r in fresh] == LOW_MARKS
    short = str(tmp_path / "short.jsonl")
    assert _low(job, short) == fresh
    cp = read_latest(short)
    assert cp.range_done == LOW_MARKS[-1] + 1
    assert cp.task_id == {"census": "pattern(0,2)@200000",
                          "brun": "brun@200000"}[job]
    assert _low(job, short) == fresh  # the shorter file resumes
    # a file that earlier releases wrote, scanned on to the limit + 1
    whole = str(tmp_path / "whole.jsonl")
    kernel = (_PatternCensus(Pattern((0, 2)), 2 * 10**5, tuple(LOW_MARKS))
              if job == "census" else _BrunSum(2 * 10**5, tuple(LOW_MARKS)))
    scan_mod.scan(2, 2 * 10**5 + 1, kernel, Config(segment_bytes=1 << 10),
                  whole, STRIDE)
    assert read_latest(whole).range_done == 2 * 10**5 + 1
    finished = Path(whole).read_bytes()
    assert _low(job, whole) == fresh
    assert Path(whole).read_bytes() == finished  # nothing left to scan


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("gap_limit", [10**3, 54321, 2 * 10**5 - 2])
def test_gap_kernel_ends_at_its_bound_under_a_longer_walk(gap_limit, threads):
    cfg = Config(segment_bytes=1 << 10, threads=threads)
    bound = gap_limit - 1
    longer = scan_mod.scan(2, 2 * 10**5 + 1, _GapStats(bound), cfg)
    assert longer == scan_mod.scan(2, gap_limit, _GapStats(bound), cfg)
    assert longer.last <= bound
