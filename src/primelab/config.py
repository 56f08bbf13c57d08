"""Runtime configuration.

Settings travel as a frozen dataclass, checked when it is built, so the
threads of one scan can share one instance safely.
"""
from __future__ import annotations

from dataclasses import dataclass

# 4 MiB segments, kept after a sweep of the segment walk's cost on one
# core: a bare Walk with its base table built beforehand, in ns per
# integer, the median of 5 fresh processes per cell run in interleaved
# rounds (2-core x86-64 VM with 2 MiB of L2 cache per core, Python 3.11,
# numpy 2.4, uint32 base table):
#
#   segment   2 .. 1e8   1e12 + 2**26   1e14 + 2**25
#   1 MiB       0.84         2.03           4.16
#   2 MiB       0.89         2.08           3.44
#   4 MiB       0.87         2.27           3.19
#   8 MiB       0.89         2.82           3.13
#
# No size wins at every height.  4 MiB is within 2% of the best at 1e14,
# where the long gap hunts run, and within 4% of it at 1e8; it is 12%
# behind 1 MiB at 1e12.  Single cells spread by up to 40% on this host,
# so differences under about 10% are not resolved.
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
