"""Reciprocal sums over twin pairs and the extrapolated series limit.

Pairs are indexed by their smaller member p <= limit (the census
convention), so 5 contributes through both (3,5) and (5,7).  Segments
are summed in 80-bit floats and merged into a Kahan-compensated
accumulator in ascending range order; shard boundaries are fixed by the
segment size, not the thread count, so totals do not depend on threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .config import Config
from .errors import CheckpointError
from .refdata import BRUN_ESTIMATES, BRUN_KUTRIB_RICHSTEIN, BRUN_REFERENCE
from .scan import Kernel, normalize_marks, scan

__all__ = [
    "BrunAccumulator",
    "BrunRow",
    "BrunReportRow",
    "brun_partial",
    "brun_extrapolate",
    "brun_table_report",
    "estimate_marks",
    "format_longdouble",
    "parse_longdouble",
]

_LD = np.longdouble


def format_longdouble(x) -> str:
    """Shortest decimal string that parses back to the same 80-bit float."""
    return np.format_float_positional(_LD(x), unique=True)


def parse_longdouble(s: str) -> np.longdouble:
    return _LD(s)


@dataclass
class BrunAccumulator:
    """Compensated twin-reciprocal sum to limit_done, a row per mark passed."""

    limit_done: int = 2
    pair_count: int = 0
    sum: np.longdouble = _LD(0)
    compensation: np.longdouble = _LD(0)
    rows: list[BrunRow] = field(default_factory=list)

    def merge(self, block_sum, block_pairs: int, new_limit: int) -> None:
        y = _LD(block_sum) - self.compensation
        t = self.sum + y
        self.compensation = (t - self.sum) - y
        self.sum = t
        self.pair_count += int(block_pairs)
        self.limit_done = int(new_limit)


class BrunRow(NamedTuple):
    limit: int
    sum: np.longdouble
    pair_count: int


class _BrunSum(Kernel):
    """Sum of 1/p + 1/(p+2) over twin pairs, as a BrunAccumulator."""

    reach = 2
    exact = False

    def __init__(self, limit: int, marks: tuple[int, ...]):
        self.task_id = f"brun@{limit}"
        self.marks = marks

    def empty(self) -> BrunAccumulator:
        return BrunAccumulator()

    def segment(self, lo: int, hi: int, bits: np.ndarray) -> BrunAccumulator:
        slots = (hi - lo) // 2
        inst = bits[:slots] & bits[1:slots + 1]
        idx = np.nonzero(inst)[0]
        p = lo + 1 + 2 * idx.astype(np.int64)
        recips = 1.0 / p.astype(_LD) + 1.0 / (p + 2).astype(_LD)
        part = BrunAccumulator(
            hi, int(idx.size), recips.sum(dtype=_LD) if idx.size else _LD(0))
        for mk in self.marks:
            if lo <= mk < hi:
                cnt = int(np.searchsorted(p, mk, side="right"))
                psum = recips[:cnt].sum(dtype=_LD) if cnt else _LD(0)
                part.rows.append(BrunRow(mk, psum, cnt))
        return part

    def merge(self, acc: BrunAccumulator,
              part: BrunAccumulator) -> BrunAccumulator:
        acc.rows += [BrunRow(r.limit, acc.sum + r.sum,
                             acc.pair_count + r.pair_count) for r in part.rows]
        acc.merge(part.sum, part.pair_count, part.limit_done)
        return acc

    def dump(self, acc: BrunAccumulator) -> dict:
        return {
            "sum": format_longdouble(acc.sum),
            "comp": format_longdouble(acc.compensation),
            "pairs": str(acc.pair_count),
            "rows": [[r.limit, format_longdouble(r.sum), r.pair_count]
                     for r in acc.rows],
        }

    def load(self, payload: dict, range_done: int) -> BrunAccumulator:
        acc = BrunAccumulator(
            range_done, int(payload["pairs"]),
            parse_longdouble(payload["sum"]),
            parse_longdouble(payload["comp"]),
            [BrunRow(int(m), parse_longdouble(s), int(c))
             for m, s, c in payload["rows"]])
        if [r.limit for r in acc.rows] != [m for m in self.marks
                                           if m < range_done]:
            raise CheckpointError("checkpoint marks do not match this run")
        return acc


def brun_partial(limit: int, checkpoints: Sequence[int] | None = None, *,
                 cfg: Config | None = None,
                 checkpoint_path=None,
                 checkpoint_stride: int = 1 << 28) -> list[BrunRow]:
    """Compensated partial sums at each requested mark (default: the limit)."""
    if limit < 5:
        raise ValueError("limit must be at least 5")
    cfg = (cfg or Config()).validate()
    marks = normalize_marks(limit, checkpoints)
    return scan(2, limit + 1, _BrunSum(limit, marks), cfg, checkpoint_path,
                checkpoint_stride).rows


@lru_cache(maxsize=None)
def _alpha_longdouble() -> np.longdouble:
    from .constants import _alpha25
    return _LD(_alpha25().decimal_str())


def brun_extrapolate(sum_value, limit: int) -> np.longdouble:
    """sum + 4*alpha/log(limit); assumes the pair-density conjecture."""
    if limit < 10**3:
        raise ValueError("limit must be at least 1000")
    return _LD(sum_value) + 4 * _alpha_longdouble() / np.log(_LD(limit))


class BrunReportRow(NamedTuple):
    limit: int
    raw_sum: str
    extrapolated: str | None
    published_estimate: float | None
    published_error: float | None
    published_by: str | None
    vs_reference: float | None


def estimate_marks(limit: int) -> list[int]:
    """Published-estimate thresholds at or below limit, for checkpoints."""
    return sorted({row[1] for row in BRUN_ESTIMATES if row[1] <= limit})


def brun_table_report(partials: Sequence[BrunRow]) -> dict:
    """Partial sums lined up with the published estimate history.

    Extrapolated values assume the pair-density conjecture and are
    labeled as such; the difference column is against the reference
    value, not a computed truth.
    """
    by_limit = {row[1]: row for row in BRUN_ESTIMATES}
    ref = float(BRUN_REFERENCE.value)
    rows = []
    for part in partials:
        ext = None
        diff = None
        if part.limit >= 10**3:
            ext_val = brun_extrapolate(part.sum, part.limit)
            ext = format_longdouble(ext_val)
            diff = float(ext_val) - ref
        pub = by_limit.get(part.limit)
        rows.append(BrunReportRow(
            part.limit, format_longdouble(part.sum), ext,
            pub[2] if pub else None, pub[3] if pub else None,
            pub[4] if pub else None, diff))
    return {
        "rows": rows,
        "reference": BRUN_REFERENCE,
        "alternate_reference": BRUN_KUTRIB_RICHSTEIN,
        "extrapolation": "conjecture-conditional",
    }
