"""Spans around primelab's public calls, recorded from outside the package.

A Tracer replaces each layer function at every primelab module attribute
that holds it, which is where its callers look it up, so a call from
census into sieve.fill_segment is seen as well as a call from the
benchmark.  Each call leaves one span (name, start, end, parent, thread)
in memory; spans are written out once, when the run ends.  is_prime_64
is only counted: the m^2 + 1 census makes a million calls of a few
microseconds each, and a span for each would cost more memory than the
rest of the trace.

Run as a program, it traces a primelab CLI invocation in this process:

    python3 perfbench/spans.py SPANS.json report paper-tables --limit 1e8
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

SPANNED = {
    "sieve": ("fill_segment", "small_primes", "odd_prime_flags", "factorize_64"),
    "census": ("count_pattern",),
    "brun": ("brun_partial",),
    "gaps": ("hunt_gap", "scan_gaps", "missing_gaps"),
    "goldbach": ("verify_goldbach", "exceptional_count",
                 "representation_report", "count_by_prime_lookup"),
    "checkpoint": ("write_checkpoint",),
    "parallel": ("run_sharded",),
    "constants": ("twin_constant", "pattern_constant", "quad_constant",
                  "li2_precise"),
    "reports": ("build_comparison_document",),
}
COUNTED = {"sieve": ("is_prime_64",)}

# layer spans whose self time excludes these descendants
SELF_TIMED = ("census.count_pattern", "brun.brun_partial", "gaps.hunt_gap")
SELF_EXCLUDES = ("sieve.fill_segment", "checkpoint.write_checkpoint")


class Tracer:
    """Installs span wrappers on primelab and keeps the spans they record."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id, thread ident, detail)
        self.spans: list[tuple] = []
        self.counts: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        detail = None
        if name == "parallel.run_sharded":
            args = (self._worker(args[0], sid),) + tuple(args[1:])
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if name == "sieve.fill_segment":
                detail = (args[0], args[1])
            elif name == "checkpoint.write_checkpoint":
                detail = os.path.getsize(args[0]) if os.path.exists(args[0]) else 0
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), detail))

    def _worker(self, worker, parent: int):
        def traced(lo, hi):
            return self._record("parallel.worker", worker, (lo, hi), {},
                                parent=parent)
        return traced

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0, 0.0])
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                with lock:
                    cell[0] += 1
                    cell[1] += dt
        return wrapper

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "primelab" or k.startswith("primelab.")}
        for table, make in ((SPANNED, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for layer, names in table.items():
                owner = mods[f"primelab.{layer}"]
                for fname in names:
                    original = getattr(owner, fname)
                    wrapper = make(f"{layer}.{fname}", original)
                    for mod in mods.values():
                        if getattr(mod, fname, None) is original:
                            setattr(mod, fname, wrapper)
                            self._patched.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str, **extra) -> None:
        threads = {t: i for i, t in enumerate(dict.fromkeys(s[5] for s in self.spans))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "thread", "detail"],
                "spans": [s[:5] + (threads[s[5]], s[6]) for s in self.spans],
                "counts": self.counts,
                **extra,
            }, fh)
            fh.write("\n")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["spans"] = [tuple(s) for s in raw["spans"]]
    return raw


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _height(lo: int) -> str:
    if lo < 10**11:
        return "low"
    return "1e12" if lo < 10**13 else "1e14"


def layer_metrics(spans: list[tuple], counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced round."""
    by_id = {s[0]: s for s in spans}

    def ancestors(s):
        while s[4] in by_id:
            s = by_id[s[4]]
            yield s

    def named(name):
        return [s for s in spans if s[1] == name]

    def total_s(name):
        # a call nested in a call of the same function is counted once
        return sum(s[3] - s[2] for s in named(name)
                   if not any(a[1] == name for a in ancestors(s)))

    out: dict[str, tuple[float, str]] = {}
    for layer, names in SPANNED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = (len(named(name)), "count")
            out[f"{name}.s"] = (total_s(name), "s")

    fills = named("sieve.fill_segment")
    out["sieve.fill_segment.ints"] = (sum(s[6][1] - s[6][0] for s in fills), "count")
    for height in ("low", "1e12", "1e14"):
        sel = [s for s in fills if _height(s[6][0]) == height]
        ints = sum(s[6][1] - s[6][0] for s in sel)
        secs = sum(s[3] - s[2] for s in sel)
        out[f"sieve.fill_segment.ns_per_int_{height}"] = (
            1e9 * secs / ints if ints else 0.0, "ns/int")

    calls, secs = counts.get("sieve.is_prime_64", (0, 0.0))
    out["sieve.is_prime_64.calls"] = (calls, "count")
    out["sieve.is_prime_64.us_per_call"] = (1e6 * secs / calls if calls else 0.0, "us")

    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[1] in SELF_EXCLUDES:
            for a in ancestors(s):
                children.setdefault(a[0], []).append(s)
    for name in SELF_TIMED:
        own = 0.0
        for s in named(name):
            covered = [(max(c[2], s[2]), min(c[3], s[3]))
                       for c in children.get(s[0], [])]
            own += (s[3] - s[2]) - _union_length([iv for iv in covered if iv[0] < iv[1]])
        out[f"{name}.self_s"] = (own, "s")

    writes = named("checkpoint.write_checkpoint")
    last = max(writes, key=lambda s: s[2]) if writes else None
    out["checkpoint.write_checkpoint.ms_last"] = (
        1e3 * (last[3] - last[2]) if last else 0.0, "ms")
    out["checkpoint.bytes_written"] = (sum(s[6] for s in writes), "B")
    out["parallel.worker_busy_s"] = (
        sum(s[3] - s[2] for s in named("parallel.worker")), "s")
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import primelab.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    with tracer:
        status = primelab.cli.main(cli_args)
    tracer.dump(spans_path, cli_import_s=import_s)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
