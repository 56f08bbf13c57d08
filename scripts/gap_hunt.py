#!/usr/bin/env python3
"""Hunt the first occurrence of a large prime gap.

Two published targets are wired in as presets:

  --preset 778    gap 778 first occurring near 4.28e13
  --preset 1132   gap 1132 (1131 composites) near 1.69e15

Both are far beyond desk scale. On one core of a 2-core x86-64 VM the
hunt costs about 2.9 ns per integer near 4e13 and 4.8 ns near 1.6e15
(medians of 3 fresh processes over 2**27 integers), and less below, so
preset 778 takes at most about a day and a half and preset 1132 at most
about three months. The base table of primes up to the square root of
the stop point is held as uint32: 451,839 primes (1.8 MB) for preset
778 and 2,522,555 (10.1 MB) for preset 1132.
The point of this script is that the search is checkpointed, so it can
be stopped and resumed indefinitely and still land on the same answer.
For a desk-scale demonstration try:

    python scripts/gap_hunt.py --gap 100 --stop 1e7 \
        --checkpoint runs/gap100.jsonl

--threads sets the worker threads (default 1); a hunt's kernel is light,
so a second thread buys little (README, "Configuration").
"""
import argparse
import sys
import time

from primelab.cli import exit_status, int_arg
from primelab.config import Config
from primelab.gaps import hunt_gap
from primelab.refdata import GAP_1132, GAP_778

PRESETS = {
    "778": (778, GAP_778),
    "1132": (1132, GAP_1132),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", choices=sorted(PRESETS), default=None)
    ap.add_argument("--gap", type=int_arg, default=None)
    ap.add_argument("--stop", type=int_arg, default=None)
    ap.add_argument("--start", type=int_arg, default=2)
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--stride", type=int_arg, default=1 << 30,
                    help="checkpoint every this many integers scanned")
    args = ap.parse_args()

    reference = None
    if args.preset:
        gap, ref = PRESETS[args.preset]
        # stop a comfortable margin past the published location
        stop = int(ref.value[0] * 1.02)
        reference = ref
    else:
        if args.gap is None or args.stop is None:
            ap.error("need --preset or both --gap and --stop")
        gap, stop = args.gap, args.stop
    return exit_status(lambda: run(args, gap, stop, reference))


def run(args, gap: int, stop: int, reference) -> int:
    t0 = time.time()
    rec = hunt_gap(gap, stop, start=args.start,
                   cfg=Config(threads=args.threads),
                   checkpoint_path=args.checkpoint,
                   checkpoint_stride=args.stride)
    dt = time.time() - t0

    if rec is None:
        print(f"gap {gap}: no occurrence up to {stop} ({dt:.1f}s)")
        # only a preset has a published location to contradict
        return 1 if reference is not None else 0
    print(f"gap {gap}: first at p = {rec.p} ({dt:.1f}s)")
    if reference is not None:
        want = reference.value[0]
        if rec.p == want:
            print(f"matches the published location ({reference.citation})")
        else:
            print(f"DIFFERS from published {want} ({reference.citation})",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
