"""The primelab benchmark: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload twin-scan --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports primelab from ./src and
runs the CLI from there.  Each workload is one closed-loop process: it
repeats whole rounds of short calls while --seconds last, then checks
every output against a reference the benchmark holds itself (checks.py,
refs.json) and prints one JSON line.  --trace 0 reports the end-to-end
metrics; --trace 1 runs one plain and one traced round and
reports the per-layer metrics and the tracing overhead.  --smoke runs the
same code at tiny sizes.  README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from time import perf_counter

import checks
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Sizes of every call; SMOKE keeps the same calls and checks at toy size.
# No timed call takes more than about 2 s, so a run holds 9 to 40 rounds.
FULL = {
    "twin_limit": 10**8,
    "square_limit": 10**10,
    "goldbach_limit": 10**7, "goldbach_floor": 10**6, "goldbach_draws": 8,
    "goldbach_top": 10**8,
    "paper_limit": 10**7,
    "setup_repeats": 5,
    "windows": {"1e12": "1e12", "1e14": "1e14"},
}
SMOKE = {
    "twin_limit": 10**6,
    "square_limit": 10**8,
    "goldbach_limit": 10**5, "goldbach_floor": 10**4, "goldbach_draws": 4,
    "goldbach_top": 10**6,
    "paper_limit": 10**4,
    "setup_repeats": 2,
    "windows": {"1e12": "smoke", "1e14": "smoke"},
}
THREADS = 2
# the smallest stride: a chunk is at least 2 default segments (2**23 integers),
# so 12 checkpoint writes per call at 1e8
TWIN_STRIDE = 1 << 23
SEEDED_MARKS = 3
EXACT_BRUN_UPTO = 10**6  # Brun sums checked against mpmath up to here


@dataclass
class Op:
    """One public call or CLI run, its time, result and check failures."""

    label: str
    seconds: float = 0.0
    result: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)


class Run:
    """Operations of one benchmark run; checks are deferred to the end."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._checks: list = []

    def call(self, label: str, fn, *args, **kwargs) -> Op:
        op = Op(label)
        self.ops.append(op)
        t0 = perf_counter()
        try:
            op.result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is one failed operation
            op.error = repr(exc)
        op.seconds = perf_counter() - t0
        return op

    def later(self, op: Op, check) -> None:
        """Queue check(result) -> list of problems, run once timing is over."""
        self._checks.append((op, check))

    def check_all(self) -> None:
        for op, check in self._checks:
            if op.error is None:
                try:
                    op.problems.extend(check(op.result))
                except Exception as exc:  # output too malformed to check
                    op.problems.append(f"check raised {exc!r}")
        self._checks.clear()

    def summary(self) -> dict:
        bad = [op for op in self.ops if op.error or op.problems]
        for op in bad:
            print(f"{op.label}: {op.error or '; '.join(op.problems)}", file=sys.stderr)
        return {"correct": not any(op.problems for op in self.ops),
                "attempted": len(self.ops), "failed": len(bad)}


# ---------------------------------------------------------------------------
# Calls and their checks.  Each returns the rate it measured.

def _decades(limit: int) -> list[int]:
    return [10**k for k in range(3, 20) if 10**k <= limit]


def _check_twin_counts(rows, table: checks.PrimeTable) -> list[str]:
    out = []
    for mark, count in rows:
        want = checks.PI2.get(mark)
        if want is None:
            want = len(table.twin_starts(mark))
        if count != want:
            out.append(f"pi2({mark}) = {count}, expected {want}")
    return out


def census_call(run: Run, pl, table, limit, marks, ckpt: Path) -> float:
    ckpt.unlink(missing_ok=True)
    op = run.call(f"census.count_pairs_2k({limit})", pl.census.count_pairs_2k,
                  1, limit, marks, cfg=pl.Config(threads=THREADS),
                  checkpoint_path=str(ckpt), checkpoint_stride=TWIN_STRIDE)
    ckpt.unlink(missing_ok=True)
    run.later(op, lambda res: _check_twin_counts(res.rows, table))
    return limit / op.seconds


def brun_call(run: Run, pl, table, limit, marks, ckpt: Path) -> float:
    ckpt.unlink(missing_ok=True)
    op = run.call(f"brun.brun_partial({limit})", pl.brun.brun_partial,
                  limit, marks, cfg=pl.Config(threads=THREADS),
                  checkpoint_path=str(ckpt), checkpoint_stride=TWIN_STRIDE)
    ckpt.unlink(missing_ok=True)

    def check(rows) -> list[str]:
        out = _check_twin_counts([(r.limit, r.pair_count) for r in rows], table)
        for r in rows:
            if r.limit <= EXACT_BRUN_UPTO:
                want = table.brun_sum(r.limit)
                if abs(float(r.sum) - want) > 1e-14:
                    out.append(f"Brun sum at {r.limit} = {r.sum}, expected {want}")
        last = rows[-1]
        if last.limit >= 10**7:
            ext = checks.brun_extrapolated(float(last.sum), last.limit)
            if abs(ext - checks.BRUN_B2) > 1e-4:
                out.append(f"extrapolated Brun sum {ext} is not near {checks.BRUN_B2}")
        return out

    run.later(op, check)
    return limit / op.seconds


def hunt_call(run: Run, pl, window: dict) -> float:
    start, stop, gap = window["start"], window["stop"], window["gap"]
    op = run.call(f"gaps.hunt_gap({gap}, start={start})", pl.gaps.hunt_gap,
                  gap, stop, start=start)

    def check(rec) -> list[str]:
        import sympy
        if rec is None or rec.p != window["p"]:
            return [f"first gap {gap} after {start}: got {rec}, expected {window['p']}"]
        p = rec.p
        if not (sympy.isprime(p) and sympy.isprime(p + gap)):
            return [f"{p} or {p + gap} is not prime"]
        if any(sympy.isprime(n) for n in range(p + 1, p + gap)):
            return [f"a prime lies between {p} and {p + gap}"]
        return []

    run.later(op, check)
    return (window["p"] + gap - start) / op.seconds


def square_call(run: Run, pl, refs, limit) -> float:
    op = run.call(f"census.count_square_plus_one({limit})",
                  pl.census.count_square_plus_one, limit, "prime")
    want = refs["square_plus_one_prime"][str(limit)]
    run.later(op, lambda t: [] if t.rows == ((limit, want),)
              else [f"m^2+1 primes to {limit}: {t.rows}, expected {want}"])
    return isqrt(limit - 1) / op.seconds


def _goldbach_evens(hi: int) -> int:
    return (hi - 4) // 2 + 1


def verify_calls(run: Run, pl, hi: int) -> float:
    verify = run.call(f"goldbach.verify_goldbach(4, {hi})", pl.goldbach.verify_goldbach, 4, hi)
    run.later(verify, lambda v: [] if v is None else [f"violation reported at {v}"])
    count = run.call(f"goldbach.exceptional_count({hi})", pl.goldbach.exceptional_count, hi)
    run.later(count, lambda r: [] if r.count == 0 else [f"{r.count} exceptions"])
    return 2 * _goldbach_evens(hi) / (verify.seconds + count.seconds)


def report_calls(run: Run, pl, table, evens) -> float:
    secs = 0.0
    for n in evens:
        op = run.call(f"goldbach.representation_report({n})",
                      pl.goldbach.representation_report, n)
        secs += op.seconds

        def check(rep, n=n) -> list[str]:
            u = table.goldbach_unordered(n)
            want = {"n": n, "unordered": u,
                    "ordered": 2 * u - table.is_prime(n // 2),
                    "unordered_allow_one": u + table.is_prime(n - 1),
                    "methods_agree": True}
            if n == 10**8 and u != checks.R2_1E8:
                return [f"own count of r(1e8) is {u}, published {checks.R2_1E8}"]
            return [] if rep == want else [f"report {rep}, expected {want}"]

        run.later(op, check)
    return len(evens) / secs


def _paper_check(limit: int, table: checks.PrimeTable):
    # the report's Goldbach section takes n = limit, capped at 1e8, at least 1e4
    n = max(min(limit, 10**8) // 2 * 2, 10**4)

    def check(proc) -> list[str]:
        if proc.returncode != 0:
            return [f"exit status {proc.returncode}: {proc.stderr[-300:]}"]
        text = proc.stdout
        out = []
        census = text.split("## Twin pair census by decade")[1].split("\n\n")[1]
        rows = [r.split("|") for r in census.splitlines()[2:]]
        if len(rows) != len(_decades(limit)) or any(r[4].strip() != "yes" for r in rows):
            out.append("a census row does not read yes")
        for name, value in checks.PAPER_CONSTANTS.items():
            if f"| {name} | {value} |" not in text:
                out.append(f"constant {name} is not {value}")
        if "has a two-prime sum: CONFIRMED" not in text:
            out.append("Goldbach line is not CONFIRMED")
        want = checks.R2_1E8 if n == 10**8 else table.goldbach_unordered(n)
        if f"| unordered (p <= q) | {want:,} |" not in text:
            out.append(f"r({n}) is not {want:,}")
        return out
    return check


def paper_call(run: Run, table, limit: int, traced_to: Path | None = None) -> None:
    if traced_to is None:
        cmd = [sys.executable, "-m", "primelab"]
    else:
        cmd = [sys.executable, str(HERE / "spans.py"), str(traced_to)]
    cmd += ["report", "paper-tables", "--limit", str(limit)]
    op = run.call("primelab report paper-tables", _run_child, cmd, 150,
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    run.later(op, _paper_check(limit, table))


# ---------------------------------------------------------------------------
# Workloads: one round of calls each, returning {metric: value}.

class Workload:
    def __init__(self, pl, scale: dict, refs: dict, rng: random.Random) -> None:
        self.pl, self.scale, self.refs = pl, scale, refs
        self.table = checks.PrimeTable()

    def before(self, run: Run) -> None:
        """Calls made once per run, outside the timed rounds."""

    def round(self, run: Run, traced_to: Path | None = None) -> dict[str, float]:
        raise NotImplementedError


class TwinScan(Workload):
    def __init__(self, pl, scale, refs, rng) -> None:
        super().__init__(pl, scale, refs, rng)
        limit = scale["twin_limit"]
        extra = set()
        while len(extra) < SEEDED_MARKS:
            extra.add(2 * rng.randrange(500, min(limit, 10**6) // 2) + 1)
        self.marks = sorted(set(_decades(limit)) | extra)
        OUT.mkdir(exist_ok=True)
        self.ckpt = OUT / f"twin-scan-{os.getpid()}.ckpt"

    def round(self, run, traced_to=None):
        limit = self.scale["twin_limit"]
        return {
            "twin_census_ints_per_s": census_call(
                run, self.pl, self.table, limit, self.marks, self.ckpt),
            "brun_ints_per_s": brun_call(
                run, self.pl, self.table, limit, self.marks, self.ckpt),
        }


class HighWindow(Workload):
    def __init__(self, pl, scale, refs, rng) -> None:
        super().__init__(pl, scale, refs, rng)
        tables = {h: refs["windows"][scale["windows"][h]] for h in ("1e12", "1e14")}
        self.windows = {h: rng.choice(t) for h, t in tables.items()}

    def round(self, run, traced_to=None):
        return {
            "gap_hunt_ints_per_s_1e12": hunt_call(run, self.pl, self.windows["1e12"]),
            "gap_hunt_ints_per_s_1e14": hunt_call(run, self.pl, self.windows["1e14"]),
            "square1_candidates_per_s": square_call(run, self.pl, self.refs, self.scale["square_limit"]),
        }


class Goldbach(Workload):
    def __init__(self, pl, scale, refs, rng) -> None:
        super().__init__(pl, scale, refs, rng)
        # one draw per stratum keeps the mean size, and so the rate, steady
        lo, hi, k = scale["goldbach_floor"], scale["goldbach_limit"], scale["goldbach_draws"]
        width = (hi - lo) // k // 2 * 2
        self.evens = [lo + i * width + 2 * rng.randrange(width // 2) for i in range(k)]

    def before(self, run):
        # r(1e8) against the published count.  This report sieves to 1e8
        # four times, and its time swung by half from call to call on a
        # 2-core VM, so it is checked but not timed
        report_calls(run, self.pl, self.table, [self.scale["goldbach_top"]])

    def round(self, run, traced_to=None):
        hi = self.scale["goldbach_limit"]
        return {
            "goldbach_verify_evens_per_s": verify_calls(run, self.pl, hi),
            "goldbach_reports_per_s": report_calls(run, self.pl, self.table, self.evens),
        }


class PaperTables(Workload):
    def round(self, run, traced_to=None):
        paper_call(run, self.table, self.scale["paper_limit"], traced_to)
        return {}


CLASSES = {"twin-scan": TwinScan, "high-window": HighWindow,
           "goldbach": Goldbach, "paper-tables": PaperTables}


# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PRIMELAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run(cmd) with primelab on the path, killed after `timeout` s.

    subprocess.run(timeout=...) waits by polling with sleeps of up to
    50 ms, which rounds every measured time up to that grid; here one
    blocking wait ends as the child does, and a timer kills a hung child.
    """
    proc = subprocess.Popen(cmd, env=_child_env(), **kwargs)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()  # no-op once it has exited; ends it if communicate raised
        proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(repeats: int) -> float:
    """Median time for a fresh interpreter to import the package and its CLI."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _run_child([sys.executable, "-c", "import primelab.cli"], 120).check_returncode()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def plain_run(w: Workload, run: Run, name: str, seconds: float, scale: dict) -> dict:
    """End-to-end metrics over whole rounds that fit in `seconds` (at least one)."""
    setup_s = measure_setup(scale["setup_repeats"])
    rounds = 0
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        w.round(run)
        rounds += 1
        now = perf_counter()
        if now - t_start + (now - t0) > seconds:  # the next round would not fit
            break
    # the mean over many short rounds: the shared host's slow spells last
    # seconds, and a run of 9 to 40 rounds averages over several of them
    wall_s = (perf_counter() - t_start) / rounds
    return {"setup_s": setup_s, "wall_s": wall_s,
            "peak_rss_mb": _peak_rss_mb(children=name == "paper-tables")}


def traced_run(w: Workload, run: Run, name: str, seed: int, import_s: float) -> dict:
    """Per-layer metrics: one plain round for the call rates, then one traced."""
    t0 = perf_counter()
    rates = w.round(run)
    plain_wall = perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"spans-{name}-{seed}.json"
    tracer = spans.Tracer()
    if name == "paper-tables":
        t0 = perf_counter()
        w.round(run, traced_to=out_path)
        traced_wall = perf_counter() - t0
        raw = spans.load(out_path) if out_path.exists() else {"spans": [], "counts": {}}
        span_list, counts = raw["spans"], raw["counts"]
        import_s = raw.get("cli_import_s", import_s)
    else:
        with tracer:
            t0 = perf_counter()
            w.round(run)
            traced_wall = perf_counter() - t0
        span_list, counts = tracer.spans, tracer.counts
        tracer.dump(str(out_path), cli_import_s=import_s)
    values = {k: v for k, (v, _) in spans.layer_metrics(span_list, counts).items()}
    values.update(rates)
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = traced_wall - plain_wall
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(CLASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, same checks")
    args = ap.parse_args(argv)

    if not (SRC / "primelab" / "__init__.py").is_file():
        print(f"primelab sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import primelab.cli  # noqa: F401  (imports every layer)
    import_s = perf_counter() - t0
    import primelab as pl

    scale = SMOKE if args.smoke else FULL
    refs = checks.load_refs()
    w = CLASSES[args.workload](pl, scale, refs, random.Random(args.seed))
    run = Run()
    w.before(run)
    if args.trace:
        values = traced_run(w, run, args.workload, args.seed, import_s)
        declared = SPEC["per_layer"]
    else:
        values = plain_run(w, run, args.workload, args.seconds, scale)
        declared = SPEC["end_to_end"]
    run.check_all()
    # a layer this workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({**run.summary(), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
