"""Constellation censuses and related prime-counting scans.

A pattern is a tuple of even offsets starting at 0; an instance at p means
p + o is prime for every offset o.  Instances are counted by their smallest
member p <= limit, even when p + offset lands beyond the limit.  Counting
is segmented with a lookahead of max(offsets) so instances that straddle a
segment boundary are seen exactly once, and range shards merge by integer
addition, so results are identical for any segment size or thread count.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .config import DEFAULT_SEGMENT_BYTES, Config
from .errors import CheckpointError, MathViolationError, ResourceLimitError
from .scan import Kernel, normalize_marks, scan
from .sieve import (
    INT64_BOUND,
    Walk,
    _odd_count,
    is_prime_64,
    iter_primes,
    odd_prime_flags,
    prp_test,
    small_primes,
)

__all__ = [
    "Pattern",
    "CountTable",
    "TwinFormHit",
    "admissible",
    "count_pattern",
    "count_pairs_2k",
    "count_twin_almost_primes",
    "count_square_plus_one",
    "isolated_progression_witnesses",
    "non_twin_prime_run",
    "perfect_half_sum_scan",
    "twin_form_search",
]


@dataclass(frozen=True)
class Pattern:
    """Sorted tuple of distinct even offsets; first element must be 0."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        offs = tuple(int(o) for o in self.offsets)
        if not offs:
            raise ValueError("pattern needs at least one offset")
        if offs[0] != 0:
            raise ValueError("first offset must be 0")
        if any(o % 2 for o in offs):
            raise ValueError("odd offsets force an even member; rejected")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def coerce(cls, value) -> "Pattern":
        if isinstance(value, Pattern):
            return value
        return cls(tuple(sorted({int(o) for o in value})))

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def reach(self) -> int:
        return self.offsets[-1]

    def residue_count(self, q: int) -> int:
        """nu(q): number of distinct residues the offsets hit mod q."""
        return len({o % q for o in self.offsets})

    @property
    def tag(self) -> str:
        return "pattern(" + ",".join(map(str, self.offsets)) + ")"


@dataclass(frozen=True)
class CountTable:
    """Census counts at increasing checkpoint limits."""

    tag: str
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple((int(l), int(c)) for l, c in self.rows)
        if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
            raise ValueError("checkpoint limits must be strictly increasing")
        if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
            raise MathViolationError("census counts decreased with the limit")
        object.__setattr__(self, "rows", rows)

    @property
    def final_count(self) -> int:
        return self.rows[-1][1] if self.rows else 0

    def to_csv(self) -> str:
        return "\n".join(["limit,count"] + [f"{l},{c}" for l, c in self.rows]) + "\n"

    def to_json(self) -> str:
        return json.dumps({"tag": self.tag, "rows": [list(r) for r in self.rows]})


def admissible(pattern) -> bool:
    """True unless the offsets cover every residue class mod some prime q <= k."""
    pat = Pattern.coerce(pattern)
    for q in map(int, small_primes(max(pat.k, 2))):
        if q > pat.k:
            break
        if pat.residue_count(q) == q:
            return False
    return True


class _PatternCensus(Kernel):
    """Odd instance starts p <= mark for each mark; p = 2 is the caller's."""

    def __init__(self, pat: Pattern, limit: int, marks: tuple[int, ...]):
        self.task_id = f"{pat.tag}@{limit}"
        self.reach = pat.reach
        self.shifts = [o >> 1 for o in pat.offsets[1:]]
        self.marks = marks

    def empty(self) -> np.ndarray:
        return np.zeros(len(self.marks), dtype=np.int64)

    def segment(self, lo: int, hi: int, bits: np.ndarray) -> np.ndarray:
        m = _odd_count(lo, hi)
        inst = bits[:m].copy()
        for s in self.shifts:
            inst &= bits[s:s + m]
        full = int(inst.sum())
        totals = self.empty()
        for j, mark in enumerate(self.marks):
            if mark >= hi - 1:
                totals[j] = full
            elif mark >= lo:
                totals[j] = int(inst[:_odd_count(lo, mark + 1)].sum())
        return totals

    def merge(self, acc: np.ndarray, part: np.ndarray) -> np.ndarray:
        return acc + part

    def dump(self, totals: np.ndarray) -> dict:
        return {"totals": [str(int(t)) for t in totals],
                "marks": list(self.marks)}

    def load(self, payload: dict, range_done: int) -> np.ndarray:
        if payload.get("marks") != list(self.marks):
            raise CheckpointError("checkpoint marks do not match this run")
        totals = np.array([int(t) for t in payload["totals"]], dtype=np.int64)
        if len(totals) != len(self.marks):
            raise CheckpointError("checkpoint totals length mismatch")
        return totals


def count_pattern(pattern, limit: int, checkpoints=None, *,
                  cfg: Config | None = None,
                  checkpoint_path: str | None = None,
                  checkpoint_stride: int = 1 << 28) -> CountTable:
    """Census of an admissible pattern up to limit, counts at each checkpoint.

    With checkpoint_path, progress is persisted every checkpoint_stride of
    range and the call resumes from the file's last state.
    """
    pat = Pattern.coerce(pattern)
    if not admissible(pat):
        raise ValueError(
            f"pattern {pat.offsets} covers all residues mod a small prime; "
            "its census is finite and would mislead")
    if limit < 2:
        raise ValueError("limit must be at least 2")
    cfg = (cfg or Config()).validate()
    marks = normalize_marks(limit, checkpoints)
    totals = scan(2, limit + 1, _PatternCensus(pat, limit, marks), cfg,
                  checkpoint_path, checkpoint_stride)
    if pat.k == 1:
        # p = 2 is prime; every multi-offset pattern puts an even number at 2+o
        totals = totals + (np.asarray(marks) >= 2)
    return CountTable(pat.tag, tuple(zip(marks, map(int, totals))))


def count_pairs_2k(k: int, limit: int, checkpoints=None, *,
                   cfg: Config | None = None,
                   checkpoint_path: str | None = None,
                   checkpoint_stride: int = 1 << 28) -> CountTable:
    """Primes p <= limit with p + 2k also prime (pairs at even gap 2k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    table = count_pattern((0, 2 * k), limit, checkpoints,
                          cfg=cfg, checkpoint_path=checkpoint_path,
                          checkpoint_stride=checkpoint_stride)
    return CountTable(f"pairs(2k={2 * k})", table.rows)


def count_twin_almost_primes(limit: int, checkpoints=None, *,
                             cfg: Config | None = None) -> CountTable:
    """Odd primes p <= limit with p + 2 having at most two prime factors.

    Counted with multiplicity (big Omega), so p + 2 prime, a semiprime, or
    a prime square all qualify.  p = 2 is excluded: the pair convention
    starts twin candidates at 3, and this count must dominate the twin
    census checkpoint by checkpoint.
    """
    if limit < 3:
        raise ValueError("limit must be at least 3")
    marks = normalize_marks(limit, checkpoints)
    flags = odd_prime_flags(limit + 2)
    idx = np.flatnonzero(flags).astype(np.int64)
    ps = 2 * idx + 1
    ps = ps[ps <= limit]
    mates = ps + 2
    mate_prime = flags[(mates - 1) >> 1]

    rest = mates[~mate_prime]
    qualifies = np.zeros(len(rest), dtype=bool)
    if len(rest):
        spf = np.zeros(len(rest), dtype=np.int64)
        alive = np.arange(len(rest))
        vals = rest.copy()
        for q in range(3, isqrt(limit + 2) + 1, 2):
            if not flags[q >> 1]:
                continue
            hit = vals % q == 0
            if hit.any():
                spf[alive[hit]] = q
                alive, vals = alive[~hit], vals[~hit]
                if len(alive) == 0:
                    break
        if len(alive):
            raise MathViolationError(
                "composite p+2 with no factor below its square root")
        cof = rest // spf
        # Omega <= 2 exactly when the cofactor is itself prime
        qualifies = flags[(cof - 1) >> 1]

    winners = np.sort(np.concatenate([ps[mate_prime], ps[~mate_prime][qualifies]]))
    counts = np.searchsorted(winners, np.asarray(marks), side="right")
    return CountTable("twin_almost_prime",
                      tuple(zip(marks, map(int, counts))))


_SQUARE_MODES = ("prime", "omega_le_2", "bigomega_le_2")


def _pow_mod(c: int, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c**e mod p elementwise for uint64 arrays with p < 2**32."""
    out = np.ones_like(p)
    b = np.uint64(c) % p
    while e.any():
        odd = (e & 1) == 1
        out[odd] = out[odd] * b[odd] % p[odd]
        b = b * b % p
        e = e >> 1
    return out


def _minus_one_roots(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moduli p and residues r with p | r*r + 1, ascending in p (int64).

    p runs over the given primes that are 2 or 1 mod 4; no other prime
    divides any m*m + 1.  2 has the one class 1; p = 1 mod 4 has the two
    classes +-c**((p - 1)/4), c the least quadratic non-residue, found
    for every p at once by trying c = 2, 3, ... in turn: by Euler's
    criterion c**((p - 1)/4) squares to -1 exactly when c is a
    non-residue.  The primes must lie below 2**32, so that products of
    residues fit in uint64.
    """
    ps = primes[(primes & 3) == 1].astype(np.uint64)
    root = np.zeros_like(ps)
    todo = np.arange(len(ps))
    c = 2
    while len(todo):
        p = ps[todo]
        x = _pow_mod(c, (p - 1) >> 2, p)
        hit = x * x % p == p - 1
        root[todo[hit]] = x[hit]
        todo = todo[~hit]
        c += 1
    two = primes[:1]  # [2], or empty when there are no primes
    mods = np.concatenate((two, np.repeat(ps, 2).astype(np.int64)))
    res = np.concatenate((two - 1, np.column_stack((root, ps - root))
                          .ravel().astype(np.int64)))
    return mods, res


def _class_hits(first: np.ndarray, mods: np.ndarray, m0: int, n: int):
    """Yield, for the block of m0 .. m0 + n - 1, the offsets of the m in
    each class m = first[i] (mod mods[i]) with m >= first[i]; mods ascend.

    A modulus below max(64, n // 64) comes alone, as (slice, p); the
    larger ones come together as (offsets, moduli) arrays, one pass per
    hit, as in sieve.fill_segment.
    """
    starts = np.remainder(first - m0, mods)
    np.maximum(starts, first - m0, out=starts)
    split = int(np.searchsorted(mods, max(64, n // 64)))
    for i, p in zip(starts[:split].tolist(), mods[:split].tolist()):
        if i < n:
            yield slice(i, n, p), p
    keep = starts[split:] < n
    bi, bp = starts[split:][keep], mods[split:][keep]
    while len(bi):
        yield bi, bp
        bi = bi + bp
        keep = bi < n
        bi, bp = bi[keep], bp[keep]


def count_square_plus_one(limit: int, mode: str = "prime",
                          checkpoints=None) -> CountTable:
    """Census of m*m + 1 <= limit by primality or prime-divisor budget.

    mode="prime" counts primes of that shape; "omega_le_2" allows at most
    two distinct prime divisors; "bigomega_le_2" at most two with
    multiplicity.

    Method: a sieve over m = 1 .. top = isqrt(limit - 1) by the square
    roots of -1, the usual sieve for prime values of a quadratic (as in
    Jacobson and Williams, Math. Comp. 72 (2003)).  A prime p <= top divides m*m + 1 exactly when p = 2
    and m is odd, or p = 1 mod 4 and m = +-r (mod p) with r*r = -1
    (mod p); no other prime divides it.  Prime mode crosses off both
    classes, except the m with m*m + 1 = p.  The omega modes divide p
    out of m*m + 1 on both classes, as often as it divides, counting p
    once or per division.  What is left above 1 is one prime: it is at
    most top**2 + 1 and has no prime factor <= top.  The domain is
    limit < 2**63, so m*m + 1 fits in int64.  Memory: the primes up to
    top and their roots, plus one block of at most DEFAULT_SEGMENT_BYTES
    values of m at a time, a byte per m in prime mode and an int64
    cofactor plus index arrays per m in the omega modes.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit >= INT64_BOUND:
        raise ValueError("limit must be below 2**63, the int64 domain")
    if mode not in _SQUARE_MODES:
        raise ValueError(f"mode must be one of {_SQUARE_MODES}")
    marks = normalize_marks(limit, checkpoints)
    top = isqrt(limit - 1)
    mods, first = _minus_one_roots(small_primes(top))
    if mode == "prime":
        # m*m + 1 = p is the prime p itself: start its class one lap later
        first = first + mods * (first * first + 1 == mods)
    mark_ms = np.array([isqrt(mark - 1) for mark in marks], dtype=np.int64)
    counts = np.zeros(len(marks), dtype=np.int64)
    for m0 in range(1, top + 1, DEFAULT_SEGMENT_BYTES):
        n = min(DEFAULT_SEGMENT_BYTES, top + 1 - m0)
        if mode == "prime":
            ok = np.ones(n, dtype=bool)
            for hit, _ in _class_hits(first, mods, m0, n):
                ok[hit] = False
        else:
            rest = np.arange(m0, m0 + n, dtype=np.int64)
            rest *= rest
            rest += 1
            cnt = np.zeros(n, dtype=np.int8)
            one = np.int8(1)
            offsets = np.arange(n)
            for hit, p in _class_hits(first, mods, m0, n):
                pos = offsets[hit]
                p = np.broadcast_to(p, pos.shape)
                # unbuffered .at: one pass of large moduli may hit an m twice
                np.add.at(cnt, pos, one)
                while len(pos):
                    np.floor_divide.at(rest, pos, p)
                    again = rest[pos] % p == 0
                    pos, p = pos[again], p[again]
                    if mode == "bigomega_le_2":
                        np.add.at(cnt, pos, one)
            ok = cnt + (rest > 1) <= 2
        ms = m0 + np.flatnonzero(ok)
        counts += np.searchsorted(ms, mark_ms, side="right")
    return CountTable(f"square_plus_one({mode})",
                      tuple(zip(marks, map(int, counts))))


def isolated_progression_witnesses(limit: int) -> list[int]:
    """Primes p <= limit, p > 7, with p = 5 (mod 21); both neighbours composite.

    The progression forces 3 | p-2 and 7 | p+2, so such a prime can never
    sit in a pair (p, p+2) or (p-2, p); each witness is verified anyway.
    """
    if limit < 26:
        raise ValueError("limit must be at least 26")
    flags = odd_prime_flags(limit + 2)
    # members of the progression alternate parity; odd ones start at 47
    cands = np.arange(47, limit + 1, 42, dtype=np.int64)
    witnesses = cands[flags[(cands - 1) >> 1]] if len(cands) else cands
    for p in map(int, witnesses):
        if is_prime_64(p - 2) or is_prime_64(p + 2):
            raise MathViolationError(f"{p} +/- 2 unexpectedly prime")
        if (p - 2) % 3 or (p + 2) % 7:
            raise MathViolationError(f"{p} fails the progression residue check")
    return [int(p) for p in witnesses]


def non_twin_prime_run(m: int, search_limit: int = 10**8, *,
                       cfg: Config | None = None) -> list[int]:
    """First run of m consecutive primes, none a member of a twin pair.

    Prime 2 counts as isolated (the pair convention starts at 3), so
    m = 1 returns [2].
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    run: list[int] = []
    best = 0
    prev = None
    cur = None
    # successor lookahead decides right-side twin membership; a successor
    # beyond search_limit + 2 cannot be at gap 2
    for nxt in iter_primes(search_limit + 2, cfg):
        if cur is not None:
            twin = (prev is not None and cur - prev == 2) or nxt - cur == 2
            if twin:
                run = []
            else:
                run.append(cur)
                if len(run) == m:
                    return run
                best = max(best, len(run))
        prev, cur = cur, nxt
    if cur is not None and cur <= search_limit:
        if not (prev is not None and cur - prev == 2):
            run.append(cur)
            if len(run) == m:
                return run
        best = max(best, len(run))
    err = ResourceLimitError(
        f"no run of {m} non-twin primes below {search_limit}")
    err.progress = {"search_limit": search_limit, "longest_run": best}
    raise err


def _even_perfects_upto(bound: int) -> list[int]:
    """Even perfect numbers <= bound via the Euclid-Euler form."""
    out = []
    for q in map(int, small_primes(64)):
        mq = (1 << q) - 1
        if mq < 1 << 63 and is_prime_64(mq):
            n = (1 << (q - 1)) * mq
            if n <= bound:
                out.append(n)
    return out


def perfect_half_sum_scan(limit: int, *,
                          cfg: Config | None = None) -> list[tuple[int, int]]:
    """Twin pairs (p, p+2) with p <= limit whose half-sum p+1 is perfect.

    Also asserts, for every twin pair with p > 5 encountered in the scan,
    that 6 divides p + 1.
    """
    if limit < 7:
        raise ValueError("limit must be at least 7")
    cfg = (cfg or Config()).validate()
    perfect = set(_even_perfects_upto(limit + 1))
    out: list[tuple[int, int]] = []
    for lo, hi, bits in Walk(limit + 1, cfg, reach=2).segments(2, limit + 1):
        m = _odd_count(lo, hi)
        inst = bits[:m] & bits[1:1 + m]
        ps = lo + 1 + 2 * np.flatnonzero(inst).astype(np.int64)
        big = ps[ps > 5]
        if len(big) and ((big + 1) % 6).any():
            raise MathViolationError("twin start p > 5 with p+1 not a multiple of 6")
        for p in map(int, ps):
            if p + 1 in perfect:
                out.append((p, p + 2))
    return out


@dataclass(frozen=True)
class TwinFormHit:
    k: int
    pair: tuple[int, int]
    certified: bool  # deterministic below 2**64, probable-prime above


_PRESIEVE_BOUND = 10**5


def twin_form_search(k_lo: int, k_hi: int, base: int,
                     exponent: int) -> list[TwinFormHit]:
    """k in [k_lo, k_hi] with k*base**exponent +/- 1 both (probable) primes.

    Candidates are first presieved by every prime q <= 1e5 (guarded so a
    candidate equal to q survives); survivors below 2**64 are certified
    deterministically, larger ones get a labeled probable-prime verdict.
    """
    if base not in (2, 10):
        raise ValueError("base must be 2 or 10")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    if k_hi < k_lo:
        return []
    if k_lo < 1:
        raise ValueError("k_lo must be >= 1")
    scale = base**exponent
    hits: list[TwinFormHit] = []

    # small candidates can collide with presieve primes; test them directly
    small_top = min(k_hi, (_PRESIEVE_BOUND + 1) // scale)
    for k in range(k_lo, small_top + 1):
        n = k * scale
        if n - 1 >= 2 and is_prime_64(n - 1) and is_prime_64(n + 1):
            hits.append(TwinFormHit(k, (n - 1, n + 1), True))

    big_lo = max(k_lo, small_top + 1)
    if big_lo > k_hi:
        return hits
    kv = np.arange(big_lo, k_hi + 1, dtype=np.int64)
    alive = np.ones(len(kv), dtype=bool)
    for q in map(int, small_primes(_PRESIEVE_BOUND)):
        be = pow(base, exponent, q)
        r = (kv % q) * be % q
        alive &= ~((r == 1 % q) | (r == (q - 1) % q))
        # here n = k*scale > 1e5 + 1 > q, so divisibility really means composite
    for k in map(int, kv[alive]):
        n = k * scale
        if n + 1 < 1 << 64:
            if is_prime_64(n - 1) and is_prime_64(n + 1):
                hits.append(TwinFormHit(k, (n - 1, n + 1), True))
        else:
            if prp_test(n - 1) and prp_test(n + 1):
                hits.append(TwinFormHit(k, (n - 1, n + 1), False))
    return hits
