#!/usr/bin/env python3
"""Search for twin pairs of the form k * base**exponent +/- 1.

This is the shape every record twin of the last decades has taken. The
scan presieves k by all primes up to 1e5, then runs primality tests on
the survivors: deterministic below 2**64, labeled probable-prime above.
Progress is checkpointed per k-chunk, so record-scale exponents (where
each test costs seconds and the k-range runs to billions) can be stopped
and resumed indefinitely.

    # desk-scale: all twins k*2^30 +/- 1 with k <= 2e5, under a second
    python scripts/twin_record_search.py --base 2 --exponent 30 \
        --k-hi 2e5 --checkpoint runs/form30.jsonl

    # record-scale shape (Dubner-style): expect days, resume freely
    python scripts/twin_record_search.py --base 10 --exponent 5120 \
        --k-hi 1e9 --chunk 1e5 --checkpoint runs/form5120.jsonl

With --verify-records the script instead re-tests the published record
pairs themselves (bounded by --max-digits; the largest is 51090 digits
and takes serious time per candidate).
"""
import argparse
import sys
import time

from primelab.census import twin_form_search
from primelab.checkpoint import Checkpoint, resume, write_checkpoint
from primelab.cli import exit_status, int_arg
from primelab.refdata import RECORD_TWINS
from primelab.sieve import prp_test


def verify_records(max_digits: int) -> int:
    bad = 0
    for k, base, exponent, digits, year, who in RECORD_TWINS:
        if digits > max_digits:
            print(f"skip k={k} b={base} e={exponent} "
                  f"({digits} digits > --max-digits)")
            continue
        n = k * base**exponent
        t0 = time.time()
        ok = prp_test(n - 1) and prp_test(n + 1)
        dt = time.time() - t0
        tag = "prp pair" if ok else "NOT PRIME"
        print(f"{tag}: k={k} b={base} e={exponent} "
              f"({digits} digits, {year}, {who}) [{dt:.1f}s]")
        if not ok:
            bad += 1
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=int, choices=(2, 10), default=2)
    ap.add_argument("--exponent", type=int_arg, default=30)
    ap.add_argument("--k-lo", type=int_arg, default=1)
    ap.add_argument("--k-hi", type=int_arg, default=200_000)
    ap.add_argument("--chunk", type=int_arg, default=1_000_000,
                    help="k per checkpointed chunk")
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--verify-records", action="store_true")
    ap.add_argument("--max-digits", type=int, default=3000)
    args = ap.parse_args()
    return exit_status(lambda: run(args))


def print_hit(k: int, low: int, high: int) -> None:
    """One output row; twin_form_search certifies the pairs below 2**64."""
    kind = "certified" if high < 1 << 64 else "prp"
    print(f"{k},{low},{high},{kind}")


def run(args) -> int:
    if args.verify_records:
        return verify_records(args.max_digits)
    if args.chunk < 1:
        raise ValueError("--chunk must be at least 1")

    task = f"twin_form(b={args.base},e={args.exponent})@{args.k_hi}"
    pos = args.k_lo
    found: list[list[int]] = []
    if args.checkpoint:
        got = resume(args.checkpoint, task, lambda payload, _: [
            [int(a) for a in row] for row in payload["found"]])
        if got is not None:
            found, pos = got[0], got[1] + 1
            print(f"# resuming at k={pos}, {len(found)} hits so far",
                  file=sys.stderr)
            for row in found:
                print_hit(*row)

    t0 = time.time()
    while pos <= args.k_hi:
        top = min(pos + args.chunk - 1, args.k_hi)
        for hit in twin_form_search(pos, top, args.base, args.exponent):
            found.append([hit.k, hit.pair[0], hit.pair[1]])
            print_hit(*found[-1])
        if args.checkpoint:
            write_checkpoint(args.checkpoint, Checkpoint(
                task, top, {"found": [[str(a) for a in row]
                                      for row in found]}))
        pos = top + 1
    print(f"# {len(found)} pairs, {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
