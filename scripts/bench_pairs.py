#!/usr/bin/env python3
"""Alternating benchmark pairs from two checkouts, written as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --seed-base 1000 --out BENCH_10.json

For each workload in BENCHMARK.json and each pair k = 1..10, runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in both
checkouts, with S = seed_base + k on both sides, the parent first in odd
pairs and the change first in even ones, and reads the JSON line each run
prints.  Per workload and end-to-end metric the file gives each side's
median and quartiles (statistics.quantiles, n=4), the pairs the change
won, and every pair's values in run order; per side it gives the
operations attempted and failed.  It then runs 3 alternating `--trace 1`
pairs per workload (seeds after the timed ones) and lists every per-layer
metric that is not 0 on both sides, in run order.
Each checkout needs its own src/ and perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # timed pairs per workload, the fewest that can back a claim
TRACED = 3  # --trace 1 pairs per workload


def run_one(checkout: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """One perfbench run in checkout; its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def run_pairs(dirs: dict, workload: str, seeds, seconds: float,
              trace: int) -> list[dict]:
    """{"parent": line, "change": line} per seed, alternating who runs first."""
    pairs = []
    for k, seed in enumerate(seeds, 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pair = {side: run_one(dirs[side], workload, seed, seconds, trace)
                for side in order}
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics'].get('wall_s', {}).get('value')}"
            for side in order), file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": round(med, 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(end_to_end: list[dict], pairs: list[dict]) -> dict:
    """One workload's entry from its pairs of result lines, in run order.

    end_to_end is BENCHMARK.json's list of {"name", "better", ...}.
    """
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        vals = [[p[side]["metrics"][name]["value"] for side in SIDES]
                for p in pairs]
        lower = metric["better"] == "lower"
        won = sum(c < p if lower else c > p for p, c in vals)
        out[name] = {"parent": _spread([p for p, _ in vals]),
                     "change": _spread([c for _, c in vals]),
                     "change_better_pairs": f"{won}/{len(vals)}",
                     "pairs": [[round(p, 4), round(c, 4)] for p, c in vals]}
    lines = [p[side] for p in pairs for side in SIDES]
    out["all_correct_zero_failed"] = all(
        r["correct"] and r["failed"] == 0 for r in lines)
    for key in ("attempted", "failed"):
        out[key] = {side: sum(p[side][key] for p in pairs) for side in SIDES}
    return out


def summarize_traced(pairs: list[dict]) -> dict:
    """Per-layer metrics of the traced pairs that are not 0 on both sides."""
    names = pairs[0]["parent"]["metrics"]
    return {name: {side: [round(p[side]["metrics"][name]["value"], 4)
                          for p in pairs] for side in SIDES}
            for name in names
            if any(p[side]["metrics"][name]["value"]
                   for p in pairs for side in SIDES)}


def _commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _machine() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return f"{os.cpu_count()}-core {platform.machine()} {model}".strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--note", default="", help="what the change does")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    dirs = {"parent": args.parent, "change": args.change}
    seconds = spec["run_seconds"]
    seeds = range(args.seed_base + 1, args.seed_base + PAIRS + 1)
    traced_seeds = range(seeds.stop, seeds.stop + TRACED)

    import numpy
    doc = {
        "change": args.note,
        "machine": _machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parent_commit": _commit(args.parent),
        "change_commit": _commit(args.change),
        "end_to_end": {
            "method": (f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds} --trace 0 in each checkout; "
                       f"{PAIRS} pairs per workload, parent first in "
                       f"odd pairs, change first in even ones; seed "
                       f"{args.seed_base} + pair number on both sides; "
                       f"quartiles by statistics.quantiles(n=4); pairs "
                       f"lists [parent, change] in run order"),
            "workloads": {}},
        "traced": {"method": (
            f"--trace 1 --seconds 10, {TRACED} alternating pairs per "
            f"workload, seeds {traced_seeds.start}-{traced_seeds.stop - 1}; "
            f"values in run order")},
    }
    for w in workloads:
        pairs = run_pairs(dirs, w, seeds, seconds, 0)
        doc["end_to_end"]["workloads"][w] = summarize(spec["end_to_end"],
                                                      pairs)
        doc["traced"][w] = summarize_traced(
            run_pairs(dirs, w, traced_seeds, 10, 1))
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
