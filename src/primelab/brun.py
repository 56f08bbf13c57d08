"""Reciprocal sums over twin pairs and the extrapolated series limit.

Pairs are indexed by their smaller member p <= limit (the census
convention), so 5 contributes through both (3,5) and (5,7).  Each 1/q is
summed as floor(2**128 / q): a sum is an integer N at scale 2**128, and
per-mark totals merge by addition as census counts do, so they are the
same for any segment size, thread count, stride or platform.  The exact
sum S satisfies 0 <= S - N/2**128 < 2*pairs/2**128.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Sequence

import numpy as np

from .config import Config
from .errors import CheckpointError
from .refdata import BRUN_ESTIMATES, BRUN_KUTRIB_RICHSTEIN, BRUN_REFERENCE
from .scan import Kernel, normalize_marks, scan
from .sieve import instance_chunks

__all__ = ["BrunRow", "BrunReportRow", "brun_partial", "brun_extrapolate",
           "brun_table_report", "estimate_marks", "format_sum"]

SCALE_BITS = 128
# A segment's pairs are divided in batches of at least this many.  The
# batch's three int64 arrays of 2 * pairs (under 2**12 + one chunk's pairs)
# then stay below 128 KiB, glibc's mmap threshold, so they reuse heap
# pages: batches of 2**14 pairs faulted in fresh pages every time, 8x the
# page faults of a whole-segment division and 30% more kernel time at 1e9.
_PAIR_BATCH = 1 << 12


def _round64(x: Fraction) -> tuple[int, int]:
    """x >= 0 as m * 2**e, 2**63 <= m < 2**64 (0 as 0, 0), rounded to
    nearest, ties to even: the x86-64 long double format."""
    if not x:
        return 0, 0
    e = x.numerator.bit_length() - x.denominator.bit_length()
    e -= 64 if x < Fraction(2) ** e else 63  # 2**63 <= x / 2**e < 2**64
    m = round(x / Fraction(2) ** e)  # half to even
    return (m >> 1, e + 1) if m == 1 << 64 else (m, e)


def format_sum(x) -> str:
    """Shortest decimal that identifies the 64-bit-significand value nearest x.

    Of the shortest strings that read back to that value, the one closest
    to it, as numpy prints an 80-bit long double.  For a row sum N/2**128
    the value can differ from the one nearest the exact sum S only when a
    rounding boundary lies in (N/2**128, S].
    """
    m, e = _round64(Fraction(x))
    ulp = Fraction(2) ** e
    v = m * ulp
    low, high = v - ulp / (4 if m == 1 << 63 else 2), v + ulp / 2
    for places in count(1 - len(str(int(v)))):  # from the leading digit
        unit = Fraction(10) ** -places
        c = int(v // unit)
        down, up = c * unit > low, (c + 1) * unit < high
        if down or up:
            break
    twice = 2 * (v - c * unit)
    if up and (not down or twice > unit or (twice == unit and c & 1)):
        c += 1
    text = format(Decimal(f"{c}e{-places}"), "f")
    return text if "." in text else text + "."


class BrunRow(NamedTuple):
    limit: int
    sum: Fraction  # N / 2**128
    pair_count: int


class _BrunSum(Kernel):
    """Per mark, twin pairs p <= mark and N = sum floor(2**128/q), q = p, p+2.

    The state is a 2 x marks object array (pairs, N).  Long division by q
    runs in int64 limbs of w = 63 - bitlen(limit + 2) bits, the last one
    narrower so the scale is exactly 2**128: a remainder shifted by w, and
    a segment's digit sum per limb (under limit + 2 terms), stay below 2**63.
    A segment's pairs are read a chunk at a time (instance_chunks) and
    divided a batch of chunks at a time, and its digit sums are kept per
    limb in int64; they become Python ints once per segment and once per
    mark inside it.
    """

    reach = 2

    def __init__(self, limit: int, marks: tuple[int, ...]):
        self.task_id = f"brun@{limit}"
        self.marks = marks
        w = 63 - (limit + 2).bit_length()
        k = -(-SCALE_BITS // w)
        self.widths = [w] * (k - 1) + [SCALE_BITS - w * (k - 1)]

    def empty(self) -> np.ndarray:
        return np.zeros((2, len(self.marks)), dtype=object)

    def _scaled(self, sums: np.ndarray) -> int:
        n = 0
        for s, w in zip(sums.tolist(), self.widths):
            n = (n << w) + s
        return n

    def _digit_sums(self, p: np.ndarray, cuts: list[int]) -> np.ndarray:
        """Row j, limb k: the sum over the first cuts[j] pairs of limb k of
        floor(2**128 / q), q = p and p + 2."""
        q = np.repeat(p, 2)
        q[1::2] += 2
        r, d = np.ones_like(q), np.empty_like(q)
        sums = np.empty((len(cuts), len(self.widths)), dtype=np.int64)
        for k, w in enumerate(self.widths):  # in place: no temporaries
            np.left_shift(r, w, out=r)
            np.divmod(r, q, out=(d, r))
            for j, cut in enumerate(cuts):
                sums[j, k] = d[:2 * cut].sum()
        return sums

    def segment(self, lo: int, hi: int, bits: np.ndarray) -> np.ndarray:
        part = self.empty()
        # the marks inside the segment, each read in the batch it ends in
        inside = [(j, m) for j, m in enumerate(self.marks) if lo <= m < hi - 1]
        pairs, sums = 0, np.zeros(len(self.widths), dtype=np.int64)
        found, held, slots = [], 0, (hi - lo) // 2
        for i, flags in instance_chunks(bits, slots, (1,)):
            found.append(i + np.flatnonzero(flags))
            held += len(found[-1])
            end = i + len(flags)  # odds read so far
            if held < _PAIR_BATCH and end < slots:
                continue
            p = lo + 1 + 2 * np.concatenate(found)
            marks = []
            while inside and inside[0][1] < lo + 1 + 2 * end:
                marks.append(inside.pop(0))
            cuts = [int(np.searchsorted(p, m, side="right")) for _, m in marks]
            got = self._digit_sums(p, cuts + [len(p)])
            for (j, _), cut, below in zip(marks, cuts, got):
                part[:, j] = pairs + cut, self._scaled(sums + below)
            pairs += len(p)
            sums += got[-1]
            found, held = [], 0
        for j, mark in enumerate(self.marks):
            if mark >= hi - 1:
                part[:, j] = pairs, self._scaled(sums)
        return part

    def merge(self, acc: np.ndarray, part: np.ndarray) -> np.ndarray:
        return acc + part

    def dump(self, state: np.ndarray) -> dict:
        return {"marks": list(self.marks),
                "pairs": [str(c) for c in state[0]],
                "sums": [str(n) for n in state[1]]}

    def load(self, payload: dict, range_done: int) -> np.ndarray:
        if "sum" in payload:
            # Earlier releases saved long doubles: the running sum to
            # range_done ("comp" its Kahan term) and a row per mark passed.
            # Each is a sum below 2 with fewer than 50 roundings of
            # relative size 2**-64, so within 2**-56 of the exact sum.
            cells = [(m, c, s) for m, s, c in payload["rows"]] + [
                (m, payload["pairs"], payload["sum"])
                for m in self.marks if m >= range_done]
            marks, pairs, sums = zip(*cells)
            payload = {"marks": list(marks), "pairs": pairs,
                       "sums": [int(Fraction(s) * 2**SCALE_BITS) for s in sums]}
        state = np.array([[int(c) for c in payload["pairs"]],
                          [int(n) for n in payload["sums"]]], dtype=object)
        if (payload.get("marks") != list(self.marks)
                or state.shape != (2, len(self.marks))):
            raise CheckpointError("checkpoint marks do not match this run")
        return state


def brun_partial(limit: int, checkpoints: Sequence[int] | None = None, *,
                 cfg: Config | None = None,
                 checkpoint_path=None,
                 checkpoint_stride: int = 1 << 28) -> list[BrunRow]:
    """Exact fixed-point sums at each mark (default: the limit); limit + 2
    < 2**62, the domain of the int64 limbs.

    The scan stops at the largest mark; the checkpoint's task id still
    names the limit, so a file from a scan to the limit resumes here.
    """
    if not 5 <= limit < (1 << 62) - 2:
        raise ValueError("need limit >= 5 and limit + 2 < 2**62")
    marks = normalize_marks(limit, checkpoints)
    state = scan(2, marks[-1] + 1, _BrunSum(limit, marks), cfg,
                 checkpoint_path, checkpoint_stride)
    return [BrunRow(m, Fraction(int(n), 2**SCALE_BITS), int(c))
            for m, c, n in zip(marks, *state)]


def brun_extrapolate(sum_value, limit: int) -> Fraction:
    """sum + 4*alpha/log(limit); assumes the pair-density conjecture.

    sum_value (a Fraction, float or decimal string, finite and >= 0) is
    first rounded to a 64-bit significand, so a format_sum string gives
    the same result as the sum it was printed from.  The correction is
    added at 40 digits and the result rounded to a 64-bit significand.
    """
    if limit < 10**3:
        raise ValueError("limit must be at least 1000")
    s = Fraction(sum_value)  # 'nan' and 'inf' raise ValueError
    if s < 0:
        raise ValueError("sum must be non-negative")
    from mpmath import mp

    from .constants import _alpha25
    with mp.workdps(40):
        v = mp.ldexp(*_round64(s)) + (4 * mp.mpf(_alpha25().decimal_str())
                                      / mp.log(limit))
    m, e = _round64(int(v.man) * Fraction(2) ** int(v.exp))
    return m * Fraction(2) ** e


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
        ext = (brun_extrapolate(part.sum, part.limit)
               if part.limit >= 10**3 else None)
        rows.append(BrunReportRow(
            part.limit, format_sum(part.sum), ext and format_sum(ext),
            *by_limit.get(part.limit, (None,) * 5)[2:],
            ext and float(ext) - ref))
    return {"rows": rows, "reference": BRUN_REFERENCE,
            "alternate_reference": BRUN_KUTRIB_RICHSTEIN,
            "extrapolation": "conjecture-conditional"}
