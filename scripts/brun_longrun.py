#!/usr/bin/env python3
"""Carry the twin reciprocal sum past desk scale.

Accumulates sum(1/p + 1/(p+2)) over twin pairs with decade checkpoints
and prints the partial-sum table against the published estimate history
(the reference extrapolation sits at 1.9021605831). The sum converges
miserably slowly; the extrapolated column is the interesting one, and it
is conjecture-conditional.

On one thread of a 2-core x86-64 VM (Python 3.11, numpy 2.4) 1e10 took
34.9 s, about 18 times the 2.0 s of 1e9, and two threads 34.5 s, so a
second thread buys nearly nothing (README, "Configuration"); 1e12 and
up is serious machine time.  Interrupt and resume at will via
--checkpoint.

    python scripts/brun_longrun.py --limit 1e10 \
        --checkpoint runs/brun_1e10.jsonl
"""
import argparse
import sys
import time

from primelab.brun import brun_partial, brun_table_report, estimate_marks
from primelab.cli import _emit, exit_status, int_arg
from primelab.config import Config
from primelab.scan import decade_marks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int_arg, default=10**10)
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--stride", type=int_arg, default=1 << 30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    return exit_status(lambda: run(args))


def run(args) -> int:
    cfg = Config(threads=args.threads)
    marks = {*estimate_marks(args.limit), *decade_marks(args.limit),
             args.limit}

    t0 = time.time()
    rows = brun_partial(args.limit, sorted(marks), cfg=cfg,
                        checkpoint_path=args.checkpoint,
                        checkpoint_stride=args.stride)
    dt = time.time() - t0

    rep = brun_table_report(rows)
    ref, alt = rep["reference"], rep["alternate_reference"]
    notes = [(f"# reference {ref.value} ({ref.citation})",),
             (f"# alternate {alt.value} ({alt.citation})",),
             (f"# extrapolation is {rep['extrapolation']}",)]
    _emit(args, table=("limit,raw_sum,extrapolated_conditional,"
                       "published_estimate,published_error,published_by,"
                       "vs_reference", [*rep["rows"], *notes]))
    print(f"# {dt:.1f}s, threads={cfg.threads}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
