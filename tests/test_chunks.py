"""Kernels that read a segment a chunk at a time: results for any chunk
size, the gap threshold against a plain walk, and memory that does not
grow with the segment.

sieve._AND_CHUNK sets the chunk; gaps._BATCH and brun._PAIR_BATCH set
how often a segment's gaps reach its statistics and its pairs are
divided.  Shrinking them puts chunk edges, batch edges and segment
edges (1 KiB segments) next to every gap and mark of a small range.
"""
import tracemalloc

import numpy as np
import pytest

import primelab.brun as brun_mod
import primelab.census as census_mod
import primelab.gaps as gaps_mod
import primelab.goldbach as goldbach_mod
import primelab.sieve as sieve_mod
from primelab.brun import brun_partial
from primelab.census import count_pairs_2k, perfect_half_sum_scan
from primelab.config import DEFAULT_SEGMENT_BYTES, Config
from primelab.errors import MathViolationError
from primelab.gaps import (
    hunt_gap,
    missing_gaps,
    normalized_gap_extremes,
    scan_gaps,
)
from primelab.goldbach import euler_variant_check, euler_variant_witness

from conftest import naive_sieve

LIMIT = 31500  # past the maximal gap 72 at 31397


def _edges(chunk, count):
    """The first odd of each of the first count chunks after the first,
    in the first three 1 KiB segments (2048 integers each, from 2)."""
    return [seg + 3 + 2 * chunk * k for seg in range(0, 3 * 2048, 2048)
            for k in range(1, count + 1) if 2 * chunk * k < 2048]


# marks on and beside chunk edges of 64 odds, and at the first pairs
MARKS = sorted({3, 4, 5, 6, LIMIT} | {e + d for e in _edges(64, 15)
                                       for d in (-2, -1, 0, 1)})


def _results(cfg):
    gaps = scan_gaps(LIMIT, cfg=cfg)
    return {
        "gaps": (gaps.first_occurrences, gaps.maximal),
        "missing": missing_gaps(LIMIT, 80, cfg=cfg),
        "extremes": normalized_gap_extremes(LIMIT, cfg=cfg),
        # 52 is read from every prime, 72 and 64 from blocks
        "hunt": [hunt_gap(g, LIMIT, cfg=cfg) for g in (52, 64, 72)],
        "hunt_from": hunt_gap(72, LIMIT, start=20001, cfg=cfg),
        "brun": brun_partial(LIMIT, MARKS, cfg=cfg),
        "pairs": count_pairs_2k(3, LIMIT, MARKS, cfg=cfg).rows,
    }


@pytest.fixture(scope="module")
def default_results():
    return {size: _results(Config(segment_bytes=size))
            for size in (1 << 10, DEFAULT_SEGMENT_BYTES)}


@pytest.mark.parametrize("batch", [1, 5, None])
@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("segment_bytes", [1 << 10, DEFAULT_SEGMENT_BYTES])
def test_results_do_not_depend_on_the_chunk(default_results, monkeypatch,
                                            segment_bytes, chunk, batch):
    monkeypatch.setattr(sieve_mod, "_AND_CHUNK", chunk)
    if batch is not None:
        monkeypatch.setattr(gaps_mod, "_BATCH", batch)
        monkeypatch.setattr(brun_mod, "_PAIR_BATCH", batch)
    got = _results(Config(segment_bytes=segment_bytes))
    assert got == default_results[segment_bytes]
    assert got == default_results[DEFAULT_SEGMENT_BYTES]


def test_gap_threshold_is_exact_against_a_plain_walk(monkeypatch):
    # a prime walk with no chunk, floor or block: every gap, in order
    limit = 2 * 10**6
    ps = naive_sieve(limit + 200)
    firsts, records = {}, []
    for p, q in zip(ps, ps[1:]):
        if p >= limit:
            break
        firsts.setdefault(q - p, p)
        if not records or q - p > records[-1][1]:
            records.append((p, q - p))
    floors = []
    orig = gaps_mod._gap_ends

    def spy(flags, half):
        floors.append(half)
        return orig(flags, half)

    monkeypatch.setattr(gaps_mod, "_gap_ends", spy)
    # the floor rises within a segment, so segments of 4 chunks at least
    for cfg in (Config(), Config(segment_bytes=1 << 18, threads=2)):
        floors.clear()
        scan = scan_gaps(limit, cfg=cfg)
        assert scan.first_occurrences == firsts
        assert [(r.p, r.gap) for r in scan.maximal] == records
        # most chunks were read by blocks, past a raised floor
        blocked = [h for h in floors if 2 * h >= gaps_mod.BLOCK_SCAN_GAP]
        assert len(blocked) > len(floors) // 2
        assert missing_gaps(limit, 120, cfg=cfg) == \
            [g for g in range(2, 121, 2) if g not in firsts]


def test_kernel_memory_does_not_grow_with_the_segment():
    # A cold scan to 2e7 walks three default segments.  The walk holds
    # one buffer of segment_odds + 2 bytes (the reach) and a read-only
    # wheel pattern of 2 * 255255 bytes; the base primes to 4472 are
    # under 5 KiB.  Per chunk of 2**16 odds the gap kernel holds a few
    # int64 arrays of at most one entry per prime in the chunk (12251 at
    # most, in the first one), plus a batch of at most 2**10 + 12251 gap
    # starts and sizes; the Brun kernel holds three int64 arrays of
    # twice the pairs of a batch (2**12 + one chunk's pairs, under 1900).
    # 1 MiB covers both.  Whole-segment arrays of primes (565k at 1e7)
    # would take 4.5 MB each.
    allowance = 1 << 20
    bound = DEFAULT_SEGMENT_BYTES + 2 + 2 * 255255 + allowance
    for run in (lambda: scan_gaps(2 * 10**7),
                lambda: brun_partial(2 * 10**7)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_euler_variant_check_windows(monkeypatch):
    for limit in (6, 7, 10, 2001):
        want = []
        for n in range(6, limit + 1, 4):
            try:
                a, b = euler_variant_witness(n)
                assert a + b == n
            except MathViolationError:
                want.append(n)
        assert euler_variant_check(limit) == want
        monkeypatch.setattr(goldbach_mod, "_EULER_WINDOW", 3)
        assert euler_variant_check(limit) == want
        monkeypatch.undo()
    # with no prime in the table only 2 = 1 + 1 would be allowed: every
    # n is a violation, in order across windows
    monkeypatch.setattr(goldbach_mod, "_EULER_WINDOW", 5)
    monkeypatch.setattr(goldbach_mod, "_prime_words",
                        lambda limit: np.zeros(limit // 128 + 1, np.uint64))
    assert euler_variant_check(1000) == list(range(6, 1001, 4))


def test_euler_variant_check_memory():
    # evens are taken 2**17 at a time: a window's n, n - a, its bit
    # indices and two index temporaries of the gather are five int64
    # arrays of 1 MiB; the whole range at once held 18.6 MB at 2e6
    goldbach_mod._prime_words(2 * 10**6)
    tracemalloc.start()
    try:
        assert euler_variant_check(2 * 10**6) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_perfect_half_sums_check_six_divides_p_plus_1(monkeypatch):
    orig = census_mod.instance_chunks

    def with_false_pair(bits, m, shifts):
        for i, inst in orig(bits, m, shifts):
            if i == 0:
                inst = inst.copy()
                inst[3] = True  # (9, 11), from the segment at 2
            yield i, inst

    assert perfect_half_sum_scan(10**4) == [(5, 7)]
    monkeypatch.setattr(census_mod, "instance_chunks", with_false_pair)
    with pytest.raises(MathViolationError, match="multiple of 6"):
        perfect_half_sum_scan(10**4)
