"""Runtime configuration.

Settings travel as a frozen dataclass, checked when it is built, so the
threads of one scan can share one instance safely.
"""
from __future__ import annotations

from dataclasses import dataclass

# 4 MiB segments, kept after a sweep of the segment walk's cost on one
# core, in ns per integer (median of 9 interleaved runs; 2-core x86-64 VM
# with 2 MiB of L2 cache per core, Python 3.11, numpy 2.4):
#
#   segment   2 .. 1e8   1e12 + 2**26   1e14 + 2**25
#   1 MiB       1.52         3.34           8.37
#   2 MiB       1.44         3.59           6.57
#   4 MiB       1.48         4.34           6.32
#   8 MiB       1.44         6.01           8.48
#
# No size wins at every height.  4 MiB is fastest at 1e14, where the long
# gap hunts run; it is within 3% of the best at 1e8 and 30% behind 1 MiB
# at 1e12.
DEFAULT_SEGMENT_BYTES = 1 << 22


@dataclass(frozen=True)
class Config:
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    threads: int = 1

    @property
    def segment_odds(self) -> int:
        # one byte per odd-number flag in the numpy layout
        return self.segment_bytes

    def __post_init__(self) -> None:
        # dataclasses.replace builds a new instance, so it is checked too
        if self.segment_bytes < 1 << 10:
            raise ValueError("segment_bytes must be at least 1 KiB")
        if self.threads < 1:
            raise ValueError("threads must be positive")
