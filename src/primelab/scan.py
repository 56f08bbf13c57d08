"""The segmented scan driver: chunks, shards, checkpoints and resume.

scan() runs a Kernel over [lo, hi) in chunks of max(stride, span)
integers.  On one thread a chunk is one shard; on t threads it splits
into at most 4t shards, and at least t where the chunk is long enough,
none shorter than one segment or one sieve.BLOCK of odds, whichever is
less.  A shorter shard would cut fill_segment's cache blocks short and
pay its per-prime Python calls for fewer integers.  Shards walk their
segments serially (sieve.Walk) on one thread pool that serves the whole
scan, merge exactly, in range order, and the state is checkpointed after
every chunk.  After Oliveira e Silva, Herzog and Pardi, Math. Comp. 83
(2014).
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from .checkpoint import Checkpoint, resume, write_checkpoint
from .config import Config
from .parallel import run_sharded, split_range
from .sieve import BLOCK, Walk


def normalize_marks(limit: int, checkpoints) -> tuple[int, ...]:
    """Sorted distinct report marks in [1, limit]; (limit,) when none given."""
    if checkpoints is None:
        return (int(limit),)
    marks = tuple(sorted({int(c) for c in checkpoints}))
    if not marks:
        raise ValueError("checkpoints must be non-empty when given")
    if marks[0] < 1:
        raise ValueError("checkpoints must be positive")
    if marks[-1] > limit:
        raise ValueError("checkpoints must not exceed the limit")
    return marks


def decade_marks(limit: int) -> list[int]:
    """The report marks 10**3, 10**4, ... up to limit."""
    marks, d = [], 10**3
    while d <= limit:
        marks.append(d)
        d *= 10
    return marks


class Kernel:
    """A reduction that scan() runs segment by segment, named by task_id.

    Subclasses define empty(), the state of an empty range; segment(lo,
    hi, bits), the state of one segment (bits as sieve.Walk yields it);
    merge(acc, part), acc's range followed by part's; dump(state), a
    checkpoint payload; and load(payload, range_done), its inverse.  An
    exact (integer) merge makes results independent of the split.
    """

    reach = 0

    def done(self, state) -> bool:
        """True once merge(state, x) is state for every x; the scan stops."""
        return False

    def finish(self, state):
        """The state once all of [lo, hi) is merged in."""
        return state


def scan(lo: int, hi: int, kernel: Kernel, cfg: Config,
         checkpoint_path: str | None = None, stride: int = 1 << 28):
    """Run kernel over [lo, hi), lo even, and return its final state.

    With checkpoint_path the state is saved after every chunk, and a run
    that finds the file resumes from its last state; a state saved at or
    past hi is returned as it is.
    """
    state, pos = kernel.empty(), lo
    if checkpoint_path is not None:
        got = resume(checkpoint_path, kernel.task_id, kernel.load)
        if got is not None:
            state, pos = got
    walk = Walk(hi, cfg, kernel.reach)
    first_done = [hi]  # lowest start of a shard found done
    lock = threading.Lock()

    def worker(s_lo: int, s_hi: int):
        acc = kernel.empty()
        if first_done[0] <= s_lo:
            return acc  # an earlier shard is done
        for seg in walk.segments(s_lo, s_hi):
            acc = kernel.merge(acc, kernel.segment(*seg))
            if kernel.done(acc):
                with lock:
                    first_done[0] = min(first_done[0], s_lo)
            if first_done[0] <= s_lo:
                break  # this shard or an earlier one is done
        return acc

    chunk = max(stride, walk.span)
    chunk -= chunk % 2
    least = min(walk.span, 2 * BLOCK)  # the shortest shard, in integers
    with (ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1
          else nullcontext()) as pool:
        while pos < hi and not kernel.done(state):
            nxt = min(pos + chunk, hi)
            parts = 1
            if cfg.threads > 1:
                parts = max(1, min(4 * cfg.threads, (nxt - pos) // least))
            shards = split_range(pos, nxt, parts)
            for part in run_sharded(worker, shards, pool):
                state = kernel.merge(state, part)
            pos = nxt
            if pos == hi:
                state = kernel.finish(state)
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, Checkpoint(
                    kernel.task_id, pos, kernel.dump(state)))
    return state
