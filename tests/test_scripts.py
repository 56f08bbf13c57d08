"""The scripts/ entry points: argument parsing and exit status."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primelab.checkpoint import Checkpoint, write_checkpoint
from primelab.cli import main

from conftest import naive_sieve

ROOT = Path(__file__).resolve().parent.parent
SEVENTEEN_DIGITS = "10000000000000001"  # 10**16 + 1, not a float


def run_script(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_scripts_keep_seventeen_digits(tmp_path):
    cp = tmp_path / "form.jsonl"
    out = run_script("scripts/twin_record_search.py", "--exponent", "1",
                     "--k-lo", SEVENTEEN_DIGITS, "--k-hi", SEVENTEEN_DIGITS,
                     "--checkpoint", str(cp))
    assert out.returncode == 0, out.stderr
    last = json.loads(cp.read_text().splitlines()[-1])
    assert last["range_done"] == 10**16 + 1
    assert last["task_id"].endswith("@" + SEVENTEEN_DIGITS)


def test_resumed_record_search_reprints_earlier_hits(tmp_path):
    # k*2^50 +/- 1 is certified below k = 16384 and probable above, so the
    # hits stored at the edge k = 17000 carry both kinds
    argv = ["scripts/twin_record_search.py", "--base", "2", "--exponent", "50",
            "--k-lo", "15001", "--k-hi", "18000", "--chunk", "1000"]
    full = run_script(*argv)
    assert full.returncode == 0, full.stderr
    rows = [line.split(",") for line in full.stdout.splitlines()]
    stored = [row[:3] for row in rows if int(row[0]) <= 17000]
    assert {row[3] for row in rows if int(row[0]) <= 17000} == {"certified",
                                                               "prp"}
    assert len(stored) < len(rows)
    cp = tmp_path / "form.jsonl"
    write_checkpoint(str(cp), Checkpoint("twin_form(b=2,e=50)@18000", 17000,
                                         {"found": stored}))
    resumed = run_script(*argv, "--checkpoint", str(cp))
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming at k=17001" in resumed.stderr
    assert resumed.stdout == full.stdout


@pytest.mark.parametrize("argv", [
    ["scripts/twin_census_extended.py", "--limit", "1.5"],
    ["scripts/brun_longrun.py", "--limit", "1.5"],
    ["scripts/gap_hunt.py", "--gap", "2", "--stop", "1.5"],
    ["scripts/twin_record_search.py", "--k-hi", "1.5"],
])
def test_scripts_reject_fractions(argv):
    out = run_script(*argv)
    assert out.returncode == 2
    assert "not an integer: '1.5'" in out.stderr


@pytest.mark.parametrize("argv,message", [
    (["scripts/twin_census_extended.py", "--limit", "1"], "limit must be"),
    (["scripts/brun_longrun.py", "--limit", "1"], "need limit >= 5"),
    (["scripts/gap_hunt.py", "--gap", "3", "--stop", "100"], "must be even"),
    (["scripts/twin_record_search.py", "--k-hi", "10", "--checkpoint"],
     "checkpoint error: corrupt"),
    (["scripts/twin_record_search.py", "--k-hi", "10", "--checkpoint"],
     "checkpoint error: malformed payload"),
    # a chunk below 1 never advanced: no end, and a rewrite every pass
    (["scripts/twin_record_search.py", "--k-hi", "10", "--chunk", "0"],
     "error: --chunk must be at least 1"),
    (["scripts/twin_record_search.py", "--k-hi", "10", "--chunk", "-3",
      "--checkpoint"], "error: --chunk must be at least 1"),
])
def test_scripts_usage_errors_exit_2(argv, message, tmp_path):
    # status 1 is kept for a mathematical violation
    bad = tmp_path / "bad.jsonl"
    if argv[-1] == "--checkpoint":
        if "corrupt" in message:
            bad.write_text("not json\n")
        elif "malformed" in message:
            # a valid line of this task, its payload without "found"
            write_checkpoint(str(bad), Checkpoint("twin_form(b=2,e=30)@10",
                                                  1, {}))
        argv = [*argv, str(bad)]
    out = run_script(*argv, timeout=30)
    assert out.returncode == 2, out.stderr
    assert out.stderr.splitlines() == [out.stderr.strip()]  # one line
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    if "--chunk" in argv:
        assert not bad.exists()


@pytest.mark.parametrize("limit", [500, 999, 1000])
def test_twin_census_below_the_first_decade(limit):
    # no decade mark lies at or below 999: the limit is the only row
    out = run_script("scripts/twin_census_extended.py", "--limit", str(limit))
    assert out.returncode == 0, out.stderr
    ps = set(naive_sieve(limit + 2))
    count = sum(1 for p in ps if p <= limit and p + 2 in ps)
    ref = "35,yes" if limit == 1000 else ","
    assert out.stdout.splitlines() == ["limit,count,published,match",
                                       f"{limit},{count},{ref}"]


def test_gap_hunt_not_found_is_not_a_violation(capsys):
    out = run_script("scripts/gap_hunt.py", "--gap", "200", "--stop", "1e4")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("gap 200: no occurrence up to 10000 ")
    # the CLI agrees
    assert main(["gaps", "hunt", "--gap", "200", "--stop", "1e4"]) == 0
    assert capsys.readouterr().out == "gap,first_p\n200,\n"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_gap_hunt_reads_the_thread_count(monkeypatch, capsys):
    # --threads reaches the hunt's pool; the find does not change
    import primelab.scan as scan_mod

    gap_hunt = _load_script("gap_hunt")
    pools = []

    class Counted(scan_mod.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(kwargs["max_workers"])

    monkeypatch.setattr(scan_mod, "ThreadPoolExecutor", Counted)
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setattr(sys, "argv", ["gap_hunt.py", "--gap", "72",
                                          "--stop", "1e7",
                                          "--threads", threads])
        assert gap_hunt.main() == 0
        outs.append(capsys.readouterr().out.split(" (")[0])
    assert pools == [2]
    assert outs == ["gap 72: first at p = 31397"] * 2


def _line(wall, rss, attempted=10, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def test_bench_pairs_summary_of_canned_lines():
    bench = _load_script("bench_pairs")
    metrics = [{"name": "wall_s", "better": "lower"},
               {"name": "peak_rss_mb", "better": "lower"}]
    pairs = [{"parent": _line(0.80, 60.0), "change": _line(0.66, 60.0)},
             {"parent": _line(0.78, 61.0), "change": _line(0.70, 59.0, 12)},
             {"parent": _line(0.60, 60.5), "change": _line(0.64, 60.5)},
             {"parent": _line(0.90, 60.0, failed=1),
              "change": _line(0.62, 62.0)}]
    got = bench.summarize(metrics, pairs)
    wall = got["wall_s"]
    assert wall["parent"] == {"n": 4, "median": 0.79, "q1": 0.645,
                              "q3": 0.875}
    assert wall["change"] == {"n": 4, "median": 0.65, "q1": 0.625,
                              "q3": 0.69}
    assert wall["change_better_pairs"] == "3/4"
    assert wall["pairs"] == [[0.8, 0.66], [0.78, 0.7], [0.6, 0.64],
                             [0.9, 0.62]]
    assert got["peak_rss_mb"]["change_better_pairs"] == "1/4"  # ties lose
    assert got["attempted"] == {"parent": 40, "change": 42}
    assert got["failed"] == {"parent": 1, "change": 0}
    assert got["all_correct_zero_failed"] is False
    assert bench.summarize(metrics, pairs[:3])["all_correct_zero_failed"]
