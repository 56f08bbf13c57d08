"""Deterministic range sharding.

Workers may run in any order on a thread pool, but results come back in
shard order, so a count over [lo, hi) is identical for any thread count.
The caller owns the pool, so one pool can serve every chunk of a scan.
"""
from __future__ import annotations

from concurrent.futures import Executor
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def run_sharded(worker: Callable[[int, int], T],
                shards: Sequence[tuple[int, int]],
                pool: Executor | None) -> Iterator[T]:
    """worker(lo, hi) of every shard, yielded lazily in shard order.

    On pool when there is one and more than one shard: every shard is
    submitted at once, and closing the iterator cancels those not yet
    started.  Otherwise in this thread, each shard when its result is
    asked for, so closing the iterator runs no more of them.
    """
    if pool is None or len(shards) <= 1:
        return (worker(lo, hi) for lo, hi in shards)
    return pool.map(lambda s: worker(*s), shards)
