"""The segmented scan driver: chunks, segments, checkpoints and resume.

scan() runs a Kernel over [lo, hi) in chunks of max(stride, span)
integers.  A chunk is tiled from its start into segments of span
integers (sieve.Walk), and each segment is one task: on t threads the
tasks run on one thread pool that serves the whole scan, on one thread
they run in this one.  Their states merge exactly, in range order, as
they are consumed; at the first done state the chunk's tasks that have
not started are cancelled.  The state is checkpointed after every chunk.
After Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext

from .checkpoint import Checkpoint, resume, write_checkpoint
from .config import Config
from .parallel import run_sharded
from .sieve import Walk


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


def scan(lo: int, hi: int, kernel: Kernel, cfg: Config | None = None,
         checkpoint_path: str | None = None, stride: int = 1 << 28):
    """Run kernel over [lo, hi), lo even, and return its final state.

    cfg defaults to Config().  With checkpoint_path the state is saved
    after every chunk, and a run that finds the file resumes from its
    last state; a state saved at or past hi is returned as it is.
    """
    cfg = cfg or Config()
    state, pos = kernel.empty(), lo
    if checkpoint_path is not None:
        got = resume(checkpoint_path, kernel.task_id, kernel.load)
        if got is not None:
            state, pos = got
    walk = Walk(hi, cfg, kernel.reach)

    def task(s_lo: int, s_hi: int):
        # one segment, its buffer held until the kernel is done with it
        with closing(walk.segments(s_lo, s_hi)) as segs:
            return kernel.segment(*next(segs))

    chunk = max(stride, walk.span)
    chunk -= chunk % 2
    with (ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1
          else nullcontext()) as pool:
        while pos < hi and not kernel.done(state):
            nxt = min(pos + chunk, hi)
            segments = [(a, min(a + walk.span, nxt))
                        for a in range(pos, nxt, walk.span)]
            with closing(run_sharded(task, segments, pool)) as parts:
                for part in parts:
                    state = kernel.merge(state, part)
                    if kernel.done(state):
                        break  # closing cancels the segments not started
            pos = nxt
            if pos == hi:
                state = kernel.finish(state)
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, Checkpoint(
                    kernel.task_id, pos, kernel.dump(state)))
    return state
