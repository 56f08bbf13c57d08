"""Regenerate refs.json, the high-window references, without primelab.

    python3 perfbench/make_refs.py

For each height it picks hunt windows [start, stop] in which a gap g
first occurs at the very end: the segment of integers the hunt must
cover, p + g - start, has the same length in every window, so the rate
does not depend on which window a seed picks.  The windows come from
the plain sieve in checks.py; sympy then confirms every chosen pair,
that no prime lies inside it, and the sieve itself on sampled stretches
of each window.  The m^2 + 1 prime counts are a plain sympy.isprime
pass.  Takes a few minutes on one core.
"""
from __future__ import annotations

import json
import sys
from math import isqrt

import numpy as np
import sympy

from checks import REFS_PATH, plain_sieve

SPAN = 1 << 23  # integers per default primelab segment (4 MiB of odd flags)

# name -> (base height, integers to cover, windows, candidate slack)
HEIGHTS = {
    "1e12": (10**12, 8 * SPAN - 4095, 8, 1 << 22),
    "1e14": (10**14, 2 * SPAN - 4095, 8, 1 << 22),
    "smoke": (10**9, (1 << 20) - 1, 2, 1 << 18),
}
SQUARE_LIMITS = (10**6, 10**8, 10**10, 10**12)
SAMPLE = 20000


def sympy_count(lo: int, hi: int) -> int:
    return sum(1 for n in range(lo | 1, hi, 2) if sympy.isprime(n))


def pick_window(a: int, need: int, slack: int) -> dict | None:
    """A window whose gap first occurs where p + g - start == need."""
    flags = plain_sieve(a, a + need + slack)
    ps = a + np.flatnonzero(flags).astype(np.int64)
    gs = np.diff(ps)
    ends = ps[1:]
    values, counts = np.unique(gs, return_counts=True)
    rare = set(values[counts <= 2].tolist())
    best = None
    for i in np.flatnonzero((ends >= a + need) & np.isin(gs, list(rare))):
        g, p = int(gs[i]), int(ps[i])
        start = p + g - need
        first = int(np.searchsorted(ps, start))
        if np.any(gs[first:i] == g):
            continue
        if best is None or g > best["gap"]:
            best = {"start": start, "stop": p + g, "gap": g, "p": p}
    if best is None:
        return None
    p, g, start = best["p"], best["gap"], best["start"]
    if not (sympy.isprime(p) and sympy.isprime(p + g)):
        raise RuntimeError(f"sympy rejects the pair at {p}")
    if any(sympy.isprime(n) for n in range(p + 1, p + g)):
        raise RuntimeError(f"sympy finds a prime inside the gap at {p}")
    for lo in (start, p - SAMPLE):
        own = int(np.count_nonzero(flags[lo - a:lo - a + SAMPLE]))
        if own != sympy_count(lo, lo + SAMPLE):
            raise RuntimeError(f"plain sieve disagrees with sympy near {lo}")
    return best


def windows(base: int, need: int, count: int, slack: int) -> list[dict]:
    out: list[dict] = []
    a = base
    while len(out) < count:
        win = pick_window(a, need, slack)
        if win is not None:
            out.append(win)
            print(win, file=sys.stderr, flush=True)
        a += need + slack
    return out


def square_plus_one_counts() -> dict[str, int]:
    counts = {}
    total = 0
    m = 1
    for limit in SQUARE_LIMITS:
        while m <= isqrt(limit - 1):
            total += sympy.isprime(m * m + 1)
            m += 1
        counts[str(limit)] = total
    return counts


def main() -> None:
    refs = {
        "generated_by": "python3 perfbench/make_refs.py",
        "windows": {name: windows(*spec) for name, spec in HEIGHTS.items()},
        "square_plus_one_prime": square_plus_one_counts(),
    }
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
