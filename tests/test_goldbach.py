import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primelab.goldbach as g
from primelab.cli import main
from primelab.errors import MathViolationError
from primelab.goldbach import (
    _BLOCK,
    chen_comparison,
    count_by_complement_scan,
    count_by_prime_lookup,
    count_representations,
    euler_variant_check,
    euler_variant_witness,
    exceptional_count,
    representation_report,
    three_primes,
    verify_goldbach,
)
from primelab.sieve import odd_prime_flags, small_primes

from conftest import naive_is_prime, naive_sieve


def brute_unordered(n, prime_set, allow_one=False):
    count = 0
    for a in range(2, n // 2 + 1):
        if a in prime_set and (n - a) in prime_set:
            count += 1
    if allow_one and naive_is_prime(n - 1):
        count += 1
    return count


@pytest.fixture(scope="module")
def prime_set_2e4():
    return set(naive_sieve(2 * 10**4))


def test_small_table(prime_set_2e4):
    # classic opening table: 4=2+2, 6=3+3, 8=3+5, 10=3+7=5+5, ...
    want = {4: 1, 6: 1, 8: 1, 10: 2, 12: 1, 14: 2, 16: 2, 18: 2,
            20: 2, 22: 3, 24: 3, 26: 3, 28: 2, 30: 3}
    for n, w in want.items():
        assert count_representations(n) == w
        assert brute_unordered(n, prime_set_2e4) == w


def test_both_methods_vs_brute_force(prime_set_2e4, rng):
    ns = [4, 6, 8, 10, 12] + [rng.randrange(3, 10**4) * 2 for _ in range(60)]
    for n in ns:
        want = brute_unordered(n, prime_set_2e4)
        assert count_by_prime_lookup(n) == want, n
        assert count_by_complement_scan(n) == want, n


@given(st.integers(min_value=2, max_value=5000))
def test_ordered_identity(half):
    n = 2 * half
    u = count_representations(n, "unordered")
    o = count_representations(n, "ordered")
    assert o == 2 * u - (1 if naive_is_prime(half) else 0)


def test_allow_one_convention(prime_set_2e4):
    # 6 = 1+5 under the historical reading that treats 1 as a unit summand
    assert count_representations(6, allow_one=True) == 2
    assert count_representations(6, allow_one=False) == 1
    for n in (8, 12, 14, 30, 102):
        want = brute_unordered(n, prime_set_2e4, allow_one=True)
        assert count_representations(n, allow_one=True) == want


def test_domain_validation():
    for bad in (3, 2, -4, 7):
        with pytest.raises(ValueError):
            count_representations(bad)
    with pytest.raises(ValueError):
        count_representations(10, "sideways")
    with pytest.raises(ValueError):
        verify_goldbach(10, 4)


def test_verify_range_clean():
    assert verify_goldbach(4, 10**6) is None
    assert verify_goldbach(4, 4) is None
    assert verify_goldbach(10**6, 2 * 10**6) is None


def test_exceptional_count_zero():
    res = exceptional_count(10**6)
    assert res.count == 0 and res.ratio == 0.0
    assert exceptional_count(4).count == 0


def test_representation_report_agrees():
    rep = representation_report(10**4)
    assert rep["methods_agree"]
    assert rep["unordered"] == 127
    assert rep["ordered"] == 2 * 127  # 5000 is not prime
    assert rep["unordered_allow_one"] == 127  # 9999 = 3*3*11*101


def test_report_conventions_match_count_representations():
    for n in range(4, 402, 2):
        rep = representation_report(n)
        assert rep["ordered"] == count_representations(n, "ordered"), n
        assert (rep["unordered_allow_one"]
                == count_representations(n, allow_one=True)), n


def test_report_detects_divergence(monkeypatch):
    import primelab.goldbach as g
    monkeypatch.setattr(g, "count_by_complement_scan", lambda n: 0)
    with pytest.raises(MathViolationError):
        representation_report(100)


def test_euler_variant_clean_and_witness():
    assert euler_variant_check(10**5) == []
    assert euler_variant_witness(6) == (1, 5)
    # 30 = 13 + 17 with both parts allowed; smallest-a witness is (1, 29)
    a, b = euler_variant_witness(30)
    assert (a, b) == (1, 29)
    allowed = lambda v: v == 1 or (naive_is_prime(v) and v % 4 == 1)
    assert allowed(a) and naive_is_prime(b)
    with pytest.raises(ValueError):
        euler_variant_witness(8)  # 8 % 4 == 0 is out of scope


def test_three_primes_known():
    assert three_primes(9) == (3, 3, 3)
    assert three_primes(21) == (3, 5, 13)
    assert three_primes(27) == (3, 5, 19)


def test_three_primes_exhaustive_small():
    for n in range(9, 2001, 2):
        a, b, c = three_primes(n)
        assert a + b + c == n
        assert a == 3
        for part in (a, b, c):
            assert part > 2 and naive_is_prime(part)


def test_three_primes_table_past_uint32_exits_2(monkeypatch, capsys):
    # a cap reaching 2**32 asks the table for more than uint32 holds,
    # which is refused as a usage error, not an internal one
    monkeypatch.setattr(g, "_THREE_CAP", 2**32)
    assert main(["goldbach", "three", "--n", str(2**34 + 1)]) == 2
    assert "2**32" in capsys.readouterr().err


def test_three_primes_domain():
    with pytest.raises(ValueError):
        three_primes(8)
    with pytest.raises(ValueError):
        three_primes(7)


def test_chen_comparison_shape():
    rep = chen_comparison(10**5)
    assert rep["pi12"] >= rep["pi2"]
    assert rep["ratio_pi12_vs_2alpha_li2"] > 0
    assert rep["chen_expression_value"] > 0
    assert rep["wu_coefficient"] == 1.104
    with pytest.raises(ValueError):
        chen_comparison(100)


def _pack(flags):
    """A bool table as the code's words: bit i & 63 of little-endian
    64-bit word i >> 6 is flags[i], packed by numpy here."""
    packed = np.packbits(flags, bitorder="little")
    pad = np.zeros(-packed.size % 8, dtype=np.uint8)
    return np.concatenate([packed, pad]).view("<u8")


def _use_table(mp, flags):
    """Make flags, packed, the table the Goldbach scan reads."""
    mp.setattr(g, "odd_prime_words", lambda limit: _pack(flags[:(limit + 1) // 2]))
    mp.setattr(g, "_table", None)


def _scan_evens_compress_only(lo, hi, first_only, flags):
    """The elimination as one compress-and-gather loop from the first
    prime on: the reference for the dense slice-AND steps."""
    words = _pack(flags)
    qs = [int(p) for p in small_primes(min(hi - 2, 10**6)) if p > 2]
    violations = []
    start = max(lo, 6)
    for blo in range(start, hi + 1, _BLOCK):
        bhi = min(blo + _BLOCK - 2, hi)
        rem = np.arange(blo, bhi + 1, 2, dtype=np.int64)
        for q in qs:
            if rem.size == 0:
                break
            sub = rem - q
            ok = sub >= 3
            if not ok.any():
                break
            hit = np.zeros(rem.shape, dtype=bool)
            hit[ok] = flags[(sub[ok] - 1) >> 1]
            rem = rem[~hit]
        for n in rem:
            if not g._odd_rep_exists_slow(int(n), words):
                violations.append(int(n))
                if first_only:
                    return violations
    return violations


@st.composite
def _doctored_windows(draw):
    """(lo, hi, doctor, arg): a window of evens and how to doctor the
    odd-flag table it is scanned with.

    Windows start at 4, at 6 or anywhere below 2**23, and are short or
    just wider than a block, so they end on either side of the first
    block edge.  Doctored tables make violations to compare: "thin"
    keeps each prime with probability arg, which leaves some small evens
    bare; "band" drops every prime below lo - arg, so an even just above
    lo keeps only the few q <= n - lo + arg.
    """
    doctor = draw(st.sampled_from(["none", "thin", "band"]))
    # a band's bare evens keep the sparse loop running through every q
    # up to hi, so its windows stay low and short
    top = 2**15 if doctor == "band" else 2**22
    lo = draw(st.sampled_from([4, 6, 2 * draw(st.integers(2, top))]))
    if doctor != "band" and draw(st.booleans()):
        width = 2 * draw(st.integers(_BLOCK // 2 - 8, _BLOCK // 2 + 8))
    else:
        width = 2 * draw(st.integers(0, 2000))
    arg = None
    if doctor == "thin":
        arg = draw(st.sampled_from([0.5, 0.2]))
    elif doctor == "band":
        arg = draw(st.integers(0, 300))
    return lo, lo + width, doctor, arg


@settings(max_examples=20)
@given(case=_doctored_windows(), seed=st.integers(0, 2**32 - 1))
@example(case=(4, 4000, "thin", 0.2), seed=1)
@example(case=(6, 6 + _BLOCK - 2, "thin", 0.5), seed=2)
@example(case=(6, 6 + _BLOCK, "thin", 0.5), seed=3)
@example(case=(4, 6 + _BLOCK, "none", None), seed=4)
@example(case=(30000, 34000, "band", 30), seed=5)
def test_scan_evens_matches_compress_only_loop(case, seed):
    lo, hi, doctor, arg = case
    flags = odd_prime_flags(hi)
    if doctor == "thin":
        flags &= np.random.default_rng(seed).random(flags.size) < arg
    elif doctor == "band":
        flags[:max(lo - arg, 0) // 2] = False
    with pytest.MonkeyPatch.context() as mp:
        _use_table(mp, flags)
        want = _scan_evens_compress_only(lo, hi, False, flags)
        assert g._scan_evens(lo, hi, first_only=False) == want
        assert g._scan_evens(lo, hi, first_only=True) == want[:1]
        # every even the elimination leaves, before the exhaustive check
        # can rescue one that a faulty step failed to knock out
        mp.setattr(g, "_odd_rep_exists_slow", lambda n, words: False)
        want = _scan_evens_compress_only(lo, hi, False, flags)
        assert g._scan_evens(lo, hi, first_only=False) == want


def test_scan_evens_lone_representation(monkeypatch):
    # n0 = 1200 keeps one representation, via the k-th odd prime; every
    # other odd is "prime", so all other evens go within a few steps and
    # n0 is the lone survivor when the elimination changes method
    lo, hi, n0 = 1000, 1398, 1200
    monkeypatch.setattr(g, "_odd_rep_exists_slow", lambda n, words: False)
    qs = [int(q) for q in small_primes(n0 - 3)[1:]]
    for k in range(40):
        flags = np.ones((hi + 1) // 2, dtype=bool)
        flags[0] = False
        for q in qs[:k] + qs[k + 1:]:
            flags[(n0 - q) >> 1] = False
        _use_table(monkeypatch, flags)
        assert g._scan_evens(lo, hi, first_only=False) == [], qs[k]
        flags[(n0 - qs[k]) >> 1] = False
        monkeypatch.setattr(g, "_table", None)
        assert g._scan_evens(lo, hi, first_only=False) == [n0], qs[k]


def test_violation_path_reachable(monkeypatch, capsys):
    def doctored(limit):
        flags = odd_prime_flags(limit)
        for p in (19, 31, 37, 61, 67, 79):  # 98 = 19+79 = 31+67 = 37+61
            flags[p >> 1] = False
        return _pack(flags)

    monkeypatch.setattr(g, "odd_prime_words", doctored)
    monkeypatch.setattr(g, "_table", None)
    assert verify_goldbach(4, 200) == 98
    assert exceptional_count(200).count == 1
    assert main(["goldbach", "verify", "--from", "4", "--to", "200"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "4,200,98"


def test_shared_table_cold_equals_warm(monkeypatch, prime_set_2e4):
    monkeypatch.setattr(g, "_table", None)
    ns = (4, 6, 98, 2 * 4999, 19998)
    cold = [(count_by_prime_lookup(n), count_by_complement_scan(n),
             representation_report(n)) for n in ns]
    assert [c[0] for c in cold] == [brute_unordered(n, prime_set_2e4) for n in ns]
    verify_goldbach(4, 10**6)  # grows the shared table
    assert g._table[0] == (10**6 + 1) // 2  # odds covered
    warm = [(count_by_prime_lookup(n), count_by_complement_scan(n),
             representation_report(n)) for n in ns]
    assert warm == cold
    count_by_prime_lookup(100)  # a smaller limit keeps the larger table
    assert g._table[0] == (10**6 + 1) // 2
    with pytest.raises(ValueError):
        g._prime_words(100)[0] = 0


def test_cold_report_and_verify_peak_below_a_byte_table(monkeypatch):
    # A byte per odd would hold (limit + 1) // 2 bytes for the table
    # alone; the packed table holds 1/8 of that.  Beside it the work
    # holds about one block at every limit: the build's BLOCK flags and
    # that block packed, four 256 KiB word arrays per block of evens, and
    # the counters' 2**18-bit chunks.  So the peak stays under the table,
    # one BLOCK and 1 MiB, at 2e7 (1.25 MB table) as at 1e8 (6.25 MB).
    import tracemalloc

    import primelab.sieve as sieve

    sieve._wheel_pattern()  # built once per process, 0.5 MB
    for limit, unordered in ((2 * 10**7, 70730), (10**8, 291400)):
        monkeypatch.setattr(g, "_table", None)
        monkeypatch.setattr(sieve, "_small_prime_cache", {})
        tracemalloc.start()
        try:
            rep = representation_report(limit)
            assert verify_goldbach(4, limit) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # as counted from a byte-per-odd table
        assert rep["unordered"] == unordered, limit
        table = g._table[1].nbytes
        assert table == -(-((limit + 1) // 2) // 64) * 8  # packed
        assert peak < table + sieve.BLOCK + 2**20, (limit, peak)


@pytest.fixture(scope="module")
def primes_past_block():
    return naive_sieve(_BLOCK + 2**18)


def _bitset(members):
    """members as one Python int, bit v set for each v."""
    mask = bytearray(max(members, default=0) // 8 + 1)
    for v in members:
        mask[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(mask, "little")


def _uneliminated(lo, hi, members, pset, qs):
    """Evens n in [max(lo, 6), hi] such that n - q is in members (pset
    its bitset) for no q in qs (odd, ascending), ascending.

    No numpy: the first 128 q clear their evens from a bitset of the
    window, and each even left is checked against every q.
    """
    left = int.from_bytes(b"\x55" * (hi // 8 + 1), "little")  # even bits
    left &= (1 << hi + 1) - (1 << max(lo, 6))
    for q in qs[:128]:
        left &= ~(pset << q)
    found = []
    while left:
        n = (left & -left).bit_length() - 1
        left ^= 1 << n
        if not any(n - q in members for q in qs):
            found.append(n)
    return found


def _bare_evens(lo, hi, members, pset, odd_primes):
    """(left, bare): what elimination by the odd primes q <= 10**6 leaves
    of the evens in [max(lo, 6), hi], reading n - q in members, and the
    evens of it with no odd prime p <= n/2 such that n - p is in members."""
    top = min(hi - 2, 10**6)
    qs = [q for q in odd_primes if q <= top]
    left = _uneliminated(lo, hi, members, pset, qs)
    return left, [n for n in left if not any(
        n - p in members for p in odd_primes if p <= n // 2)]


def _table(members, hi):
    flags = np.zeros((hi + 1) // 2, dtype=bool)
    flags[[p >> 1 for p in members if 2 < p <= hi]] = True
    return flags


@pytest.mark.parametrize("lo,hi", [
    (4, 64 * 1000 - 2), (4, 64 * 1000), (4, 64 * 1000 + 2),
    (3002, 64 * 1000 - 2), (3002, 64 * 1000), (3002, 64 * 1000 + 2),
    (4, _BLOCK - 2), (4, _BLOCK), (4, _BLOCK + 2),
    # the second block starts at 6 + _BLOCK, holding 1, 2 and 3 evens
    (6, _BLOCK + 6), (6, _BLOCK + 8), (6, _BLOCK + 10),
    (123458, 123458 + _BLOCK + 2 * (64 * 3 + 9)),
])
def test_scan_evens_packed_edges_vs_naive(lo, hi, primes_past_block):
    # the table holds naive_sieve's primes less every n - q, q an odd
    # prime, for the first and last even n of every block and for 40.
    # Such an n keeps one representation, its least q + (n - q) with q
    # past _DENSE_Q + 1024, if it has one; else it is bare.  The window
    # reaches about 128 past _DENSE_Q, and no two targets within a block
    # are more than 404 apart, so no kept n - q is n' - q' for a q' in
    # reach: every target survives every dense step.  (A bare n near 4e6
    # would send the sparse loop through every q <= 10**6.)
    start = max(lo, 6)
    edges = range(start, hi + 1, _BLOCK)
    targets = {*edges, *(min(b + _BLOCK - 2, hi) for b in edges)}
    targets |= {40} if lo <= 40 else set()
    odd = [p for p in primes_past_block if 2 < p <= hi]
    odd_set = set(odd)
    late = {n: next((q for q in odd if g._DENSE_Q + 1024 < q < n - 2
                     and n - q in odd_set), None) for n in targets}
    gone = {n - q for n in targets for q in odd if q < n}
    gone -= {n - q for n, q in late.items() if q is not None}
    members = [p for p in odd if p not in gone]
    flags = _table(members, hi)
    pset, members = _bitset(members), set(members)
    left, bare = _bare_evens(lo, hi, members, pset, odd)
    assert {n for n in targets if late[n] is None} <= set(bare)
    qs = [q for q in odd if q <= min(hi - 2, 10**6)]
    for blo in edges:
        bhi = min(blo + _BLOCK - 2, hi)
        idx, j = g._dense_survivors(_pack(flags), qs, blo, (bhi - blo) // 2 + 1)
        assert j >= 8 or idx.size == 0
        dense = (blo + 2 * idx).tolist()
        assert dense == _uneliminated(blo, bhi, members, pset, qs[:j])
        assert {blo, bhi} <= set(dense)
    with pytest.MonkeyPatch.context() as mp:
        _use_table(mp, flags)
        assert g._scan_evens(lo, hi, first_only=False) == bare
        assert g._scan_evens(lo, hi, first_only=True) == bare[:1]
        # every even the elimination leaves, before the exhaustive check
        mp.setattr(g, "_odd_rep_exists_slow", lambda n, words: False)
        assert g._scan_evens(lo, hi, first_only=False) == left


@pytest.mark.parametrize("where", ["bit 0", "last partial word"])
def test_scan_evens_lone_survivor_at_word_edges(where, monkeypatch):
    # 202 evens: three full words and one of 10 bits.  n0 keeps one
    # representation, via the k-th odd prime, and every other odd is
    # "prime", so n0 is a lone survivor through the dense steps
    lo, hi = 1000, 1000 + 2 * (64 * 3 + 10 - 1)
    n0 = lo if where == "bit 0" else hi
    monkeypatch.setattr(g, "_odd_rep_exists_slow", lambda n, words: False)
    qs = [int(q) for q in small_primes(n0 - 3)[1:]]
    for k in range(40):
        flags = np.ones((hi + 1) // 2, dtype=bool)
        flags[0] = False
        for q in qs[:k] + qs[k + 1:]:
            flags[(n0 - q) >> 1] = False
        _use_table(monkeypatch, flags)
        assert g._scan_evens(lo, hi, first_only=False) == [], qs[k]
        flags[(n0 - qs[k]) >> 1] = False
        monkeypatch.setattr(g, "_table", None)
        assert g._scan_evens(lo, hi, first_only=False) == [n0], qs[k]


def test_packed_composites_guard_and_byte_order():
    flags = np.array([False, True, True, False, True] + [False] * 70)
    words = g._packed_composites(_pack(flags), -64, 3)
    assert words.dtype == np.dtype("<u8")
    assert words[0] == np.iinfo(np.uint64).max  # guard: all composite
    assert words[1] == ~np.uint64(0b10110)
    # flags[64:75] mark no prime, and indices 75 and up lie past flags
    assert words[2] == np.iinfo(np.uint64).max
    assert words.view(np.uint8)[8] == 0xFF ^ 0b10110
    # the table is 2 words long: a word past it is a guard too
    past = g._packed_composites(_pack(flags), 0, 3)
    assert past[0] == ~np.uint64(0b10110)
    assert past[1] == past[2] == np.iinfo(np.uint64).max


def test_bit_readers_match_a_bool_table(rng):
    flags = np.random.default_rng(7).random(1000) < 0.3
    words = _pack(flags)
    for _ in range(200):
        s = rng.randrange(0, 1001)
        e = rng.randrange(s, 1001)
        assert (g._bits(words, s, e) == flags[s:e]).all(), (s, e)
        assert (g._bits_reversed(words, s, e) == flags[s:e][::-1]).all(), (s, e)
    i = np.arange(1000, dtype=np.int64)
    assert (g._gather(words, i) == flags).all()


def test_table_grows_within_its_last_word(monkeypatch, prime_set_2e4):
    # 100 and 118 need 50 and 59 odds, both in the table's first word:
    # the larger limit must still rebuild it
    monkeypatch.setattr(g, "_table", None)
    for n in (100, 118, 126, 128):
        assert count_by_prime_lookup(n) == brute_unordered(n, prime_set_2e4)
        assert count_by_complement_scan(n) == brute_unordered(n, prime_set_2e4)
    assert g._table[0] == (128 + 1) // 2


def test_counters_cross_chunk_edges(monkeypatch, prime_set_2e4):
    # with 64-bit chunks the counters and the exhaustive check join many
    # chunks, with every alignment of the low and the mate range
    monkeypatch.setattr(g, "_CHUNK", 64)
    for n in list(range(4, 600, 2)) + [19998]:
        want = brute_unordered(n, prime_set_2e4)
        assert count_by_prime_lookup(n) == want, n
        assert count_by_complement_scan(n) == want, n
        if n > 4:
            assert g._odd_rep_exists_slow(n, g._prime_words(n)) == (want > 0)
