"""Deterministic range sharding.

Workers may run in any order on a thread pool, but results are merged in
shard order, so a count over [lo, hi) is identical for any thread count.
The caller owns the pool, so one pool can serve every chunk of a scan.
"""
from __future__ import annotations

from concurrent.futures import Executor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def split_range(lo: int, hi: int, parts: int, align: int = 2) -> list[tuple[int, int]]:
    """Split [lo, hi) into at most `parts` disjoint covering subranges.

    Every subrange but the last is step = (hi - lo) // parts long, rounded
    down to a multiple of `align` (at least `align`), so callers relying on
    even segment bases keep that property inside every shard; the last
    takes the rest, so none is shorter than step.
    """
    if hi <= lo:
        return []
    if parts < 1:
        raise ValueError("parts must be >= 1")
    step = max(align, (hi - lo) // parts // align * align)
    bounds = list(range(lo, hi, step))[:parts] + [hi]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def run_sharded(worker: Callable[[int, int], T],
                shards: Sequence[tuple[int, int]],
                pool: Executor | None) -> list[T]:
    """Run worker(lo, hi) over every shard, results in shard order: on
    pool when there is one and more than one shard, else in this thread."""
    if pool is None or len(shards) <= 1:
        return [worker(lo, hi) for lo, hi in shards]
    return list(pool.map(lambda s: worker(*s), shards))
