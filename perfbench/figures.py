"""Reference figures for README.md, measured on the machine it runs on.

    python3 perfbench/figures.py

Prints fill_segment nanoseconds per integer for one default 4 MiB segment
at heights 1e8, 1e10, 1e12 and 1e14 (median of 5), and the time of
checkpoint write #100 and #2000 into one file with a census-shaped
payload (median of the five writes ending there).  Takes about a minute.
"""
from __future__ import annotations

import statistics
import sys
from math import isqrt
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from primelab import checkpoint, sieve  # noqa: E402

SPAN = 1 << 23


def fill_ns_per_int(height: int) -> float:
    base = sieve.small_primes(isqrt(height + SPAN) + 1)
    times = []
    for _ in range(5):
        t0 = perf_counter()
        sieve.fill_segment(height, height + SPAN, base)
        times.append(perf_counter() - t0)
    return 1e9 * statistics.median(times) / SPAN


def checkpoint_write_ms(marks: tuple[int, ...]) -> dict[int, float]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "figures.ckpt"
    path.unlink(missing_ok=True)
    times = []
    try:
        for n in range(1, max(marks) + 1):
            cp = checkpoint.Checkpoint("pattern(0,2)@100000000000000", n * SPAN, {
                "totals": [str(n * 1000 + k) for k in range(7)],
                "marks": [10**k for k in range(3, 10)]})
            t0 = perf_counter()
            checkpoint.write_checkpoint(str(path), cp)
            times.append(perf_counter() - t0)
    finally:
        path.unlink(missing_ok=True)
    return {m: 1e3 * statistics.median(times[m - 5:m]) for m in marks}


def main() -> None:
    for height in (10**8, 10**10, 10**12, 10**14):
        print(f"fill_segment at {height:.0e}: {fill_ns_per_int(height):.2f} ns/int")
    for n, ms in checkpoint_write_ms((100, 2000)).items():
        print(f"checkpoint write #{n}: {ms:.2f} ms")


if __name__ == "__main__":
    main()
