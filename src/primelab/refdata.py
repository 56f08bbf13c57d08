"""Published reference values used for comparison reports.

Every entry carries a citation to the computation or publication it came
from.  These datasets are read-only comparison targets: report generators
print them next to freshly computed values but never alter them, and the
library treats its own doubly checked computations as authoritative when
the two disagree (printed transcriptions of big counts have been known to
carry errors).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType


@dataclass(frozen=True)
class RefValue:
    value: object
    citation: str


# ---------------------------------------------------------------------------
# Twin prime counts pi_2(x): exact census values by power-of-ten limit.
# Classical tabulations, culminating in Nicely's and Sebah's runs.

PI2_BY_DECADE = MappingProxyType({
    10**3: RefValue(35, "Brent (1975, 1976) tabulation"),
    10**4: RefValue(205, "Brent (1975, 1976) tabulation"),
    10**5: RefValue(1224, "Glaisher (1878), Mess. Math. 8, 28-33"),
    10**6: RefValue(8169, "Brent (1975, 1976) tabulation"),
    10**7: RefValue(58980, "Brent (1975, 1976) tabulation"),
    10**8: RefValue(440312, "Brent (1975, 1976) tabulation"),
    10**9: RefValue(3424506, "Brent (1975, 1976) tabulation"),
    10**10: RefValue(27412679, "Brent (1975, 1976) tabulation"),
    10**11: RefValue(224376048, "Brent (1975, 1976) tabulation"),
    10**12: RefValue(1870585220, "Nicely (1995) / Kutrib-Richstein (1995)"),
    10**13: RefValue(15834664872, "Nicely (1995) / Kutrib-Richstein (1995)"),
    10**14: RefValue(135780321665, "Kutrib-Richstein (September 1995); "
                                   "confirmed by Nicely"),
})

# Largest round-number census row plus the 10**16 record.
PI2_EXTREME_ROWS = (
    RefValue((137 * 10**12, 182312485795),
             "Nicely (letter of October 10, 1995): pi_2(1.37e14)"),
    RefValue((10**16, 10304195697298), "Sebah (2002): pi_2(1e16)"),
)

# Conjectured density estimate printed alongside Sebah's 10**16 count.
PI2_1E16_PREDICTED = RefValue(
    10304192554496,
    "Hardy-Littlewood density integral evaluated at 1e16 (Sebah 2002 report)")

# Early census milestones (limit, author, year).
PI2_MILESTONES = (
    (10**5, "Glaisher", 1878),
    (10**6, "Streatfeild", 1923),
    (37 * 10**6, "Lehmer", 1957),
    (104_300_000, "Armendiny and Gruenberger", 1961),
    (2 * 10**8, "Weintraub", 1973),
    (2 * 10**9, "Bohman", 1973),
    (10**11, "Brent", 1995),
)

# ---------------------------------------------------------------------------
# Prime counts pi(x) by power-of-ten limit: published counts, so an
# oracle for the sieve that shares no code with it.

_A006880 = "OEIS A006880: number of primes < 10^n"

PI_BY_DECADE = MappingProxyType({
    10**1: RefValue(4, _A006880),
    10**2: RefValue(25, _A006880),
    10**3: RefValue(168, _A006880),
    10**4: RefValue(1229, _A006880),
    10**5: RefValue(9592, _A006880),
    10**6: RefValue(78498, _A006880),
    10**7: RefValue(664579, _A006880),
    10**8: RefValue(5761455, _A006880),
    10**9: RefValue(50847534, _A006880),
    10**10: RefValue(455052511, _A006880),
    10**11: RefValue(4118054813, _A006880),
    10**12: RefValue(37607912018, _A006880),
    10**13: RefValue(346065536839, _A006880),
    10**14: RefValue(3204941750802, _A006880),
    10**15: RefValue(29844570422669, _A006880),
    10**16: RefValue(279238341033925, _A006880),
    10**17: RefValue(2623557157654233, _A006880),
    10**18: RefValue(24739954287740860, _A006880),
    10**19: RefValue(234057667276344607, _A006880),
    10**20: RefValue(2220819602560918840, _A006880),
})

# ---------------------------------------------------------------------------
# L2(x) - pi_2(x): difference between the density-integral prediction
# L2(x) = 2 alpha li2(x) and the exact census, as classically tabulated.

L2_MINUS_PI2 = MappingProxyType({
    10**3: RefValue(11, "Brent (1975) comparison table"),
    10**4: RefValue(9, "Brent (1975) comparison table"),
    10**5: RefValue(25, "Brent (1975) comparison table"),
    10**6: RefValue(79, "Brent (1975) comparison table"),
    10**7: RefValue(-226, "Brent (1975) comparison table"),
    10**8: RefValue(56, "Brent (1975) comparison table"),
    10**9: RefValue(802, "Brent (1976) comparison table"),
    10**10: RefValue(-1262, "Brent (1976) comparison table"),
    10**11: RefValue(-7183, "Brent (1976) comparison table"),
})

# ---------------------------------------------------------------------------
# Upper-bound multipliers c in pi_2(x) <= c * 2 alpha li2(x): the sieve
# bound race.  (year, c as printed, name)

TWIN_BOUND_MULTIPLIERS = (
    (1919, "75.7...", "Brun"),
    (1947, "8", "Selberg"),
    (1964, "6", "Pan"),
    (1974, "4", "Halberstam, Richert"),
    (1978, "3.9171", "Chen"),
    (1983, "34/9 = 3.777...", "Fouvry, Iwaniec"),
    (1984, "64/17 = 3.764...", "Fouvry"),
    (1986, "3.5", "Bombieri, Friedlander, Iwaniec"),
    (1986, "3.454...", "Fouvry, Grupp"),
    (1990, "3.418", "Wu"),
    (2003, "3.406", "Cai, Lu"),
    (2004, "3.3996", "Wu"),
)
TWIN_BOUND_CITATION = "multiplier table after Narkiewicz's survey"

# ---------------------------------------------------------------------------
# Brun's constant estimates: (year, computed-to, estimate, error, author).
# error=None means the source printed a value without an error term.

BRUN_ESTIMATES = (
    (1942, 2 * 10**5, 1.901, 0.0014, "Selmer"),
    (1961, 2**20, 1.90195, 3e-5, "Froberg"),
    (1973, 2 * 10**9, 1.90216, 5e-6, "Bohman"),
    (1974, 32_452_843, 1.90218, 5e-6, "Shanks, Wrench"),
    (1974, 8 * 10**10, 1.9021604, 5e-7, "Brent"),
    (1996, 10**14, 1.9021605778, 2.1e-9, "Nicely"),
    (2001, 3 * 10**15, 1.9021605823, 8e-10, "Nicely"),
    (2007, 77 * 10**14, 1.90216058291, 1.291e-9, "Nicely"),
    (2002, 10**16, 1.902160583104, None, "Sebah"),
)

BRUN_REFERENCE = RefValue(
    "1.9021605831", "Sebah (2002) extrapolation at 1e16")
BRUN_KUTRIB_RICHSTEIN = RefValue(
    "1.902160577783278",
    "Kutrib and Richstein (1995), heuristic extrapolation at 1e14")

# ---------------------------------------------------------------------------
# Hardy-Littlewood constants as printed to 10 decimal places.

TWIN_CONSTANT_10 = RefValue("0.6601618158", "twin prime constant alpha")
TWIN_CONSTANT_DOUBLED_10 = RefValue("1.3203236316", "2 alpha")
TRIPLET_CONSTANT_10 = RefValue(
    "2.8582485957", "triplet constant (9/2) prod p^2(p-3)/(p-1)^3, p > 3")
QUADRUPLET_CONSTANT_10 = RefValue(
    "4.1511808632", "quadruplet constant (27/2) prod p^3(p-4)/(p-1)^4, p > 3")
QUAD_RESIDUE_CONSTANT_10 = RefValue(
    "0.6864067314", "m^2+1 constant (1/2) prod (1 - chi_4(p)/(p-1)), p > 2")
QUAD_RESIDUE_CONSTANT_DOUBLED_10 = RefValue("1.3728134628", "2 C_quad")

# A textbook variant prints alpha as 0.661618158, dropping the second 0;
# kept here so the report can flag the transcription slip explicitly.
TWIN_CONSTANT_VARIANT = RefValue(
    "0.661618158", "variant textbook printing of alpha, one digit dropped")

# ---------------------------------------------------------------------------
# Prime gap records.

GAP_778 = RefValue(
    (42_842_283_925_351, 778),
    "first occurrence of gap 778 (exhaustive computer search)")
GAP_1132 = RefValue(
    (1_693_182_318_746_371, 1132),
    "largest effectively computed first-occurrence gap (1131 composites)")
SMALLEST_MISSING_GAP = RefValue(
    796, "smallest even gap with no known occurrence below the 1132 record")

# ---------------------------------------------------------------------------
# Goldbach.

GOLDBACH_VERIFIED_BOUND = RefValue(
    4 * 10**14, "exhaustive machine verification of the two-prime property")
GOLDBACH_R2_1E8 = RefValue(
    219_400, "printed representation count for 100,000,000 "
             "(counting convention not stated in the source)")

# Small decompositions as classically listed, 1 permitted as a summand
# (the 18th-century convention).  Format: n -> tuple of (a, b) pairs.
GOLDBACH_SMALL_TABLE = MappingProxyType({
    2: ((1, 1),),
    4: ((2, 2), (1, 3)),
    6: ((3, 3), (1, 5)),
    8: ((3, 5), (1, 7)),
    10: ((3, 7), (5, 5)),
    12: ((5, 7), (1, 11)),
    14: ((3, 11), (7, 7), (1, 13)),
    16: ((3, 13), (5, 11)),
    18: ((5, 13), (7, 11), (1, 17)),
    20: ((3, 17), (7, 13), (1, 19)),
    22: ((3, 19), (5, 17), (11, 11)),
    24: ((5, 19), (7, 17), (11, 13), (1, 23)),
    26: ((3, 23), (7, 19), (13, 13)),
    28: ((5, 23), (11, 17)),
    30: ((7, 23), (11, 19), (13, 17), (1, 29)),
})

THREE_PRIME_BOUND_BOROZDKIN = RefValue(
    "3^(3^15)", "Borozdkin (1956) bound on the three-prime threshold")
THREE_PRIME_BOUND_2002 = RefValue(
    "10^1346", "2002 reduction of the three-prime threshold")

# ---------------------------------------------------------------------------
# Titanic twin records: (k, base, exponent, digits, year, discoverer).
# Candidates have the form k * base**exponent +/- 1.

RECORD_TWINS = (
    (33218925, 2, 169690, 51090, 2002, "reported 2002 record"),
    (570918348, 10, 5120, 5129, 1995, "Dubner"),
    (697053813, 2, 16352, 4932, 1994, "Indlekofer and Jarai"),
    (6797727, 2, 15328, 4622, 1995, "Forbes"),
    (1692923232, 10, 4020, 4030, 1993, "Dubner"),
    (4655478828, 10, 3429, 3439, 1993, "Dubner"),
    (1706595, 2, 11235, 3389, 1989, "Parady, Smith, Zarantonello (Amdahl)"),
    (459, 2, 8529, 2571, 1993, "Dubner"),
    (1171452282, 10, 2490, 2500, 1991, "Dubner"),
)

# The twin pair that exposed the Pentium FDIV bug during Nicely's run.
PENTIUM_BUG_PAIR = RefValue(
    (824_633_702_441, 824_633_702_443),
    "Nicely (1994), twin pair whose reciprocals exposed the FDIV flaw")

MILLENNIUM_PAIR = RefValue(
    (1_000_000_000_061, 1_000_000_000_063),
    "classical example of a large twin pair just above 1e12")

# ---------------------------------------------------------------------------
# Interval exponent: primes in (x, x + x^theta].

INGHAM_THETA = RefValue(Fraction(38, 61), "Ingham's interval exponent")


def all_tables() -> dict:
    """Every dataset in one mapping, for the report generator."""
    return {
        "pi_by_decade": PI_BY_DECADE,
        "pi2_by_decade": PI2_BY_DECADE,
        "pi2_extreme_rows": PI2_EXTREME_ROWS,
        "pi2_1e16_predicted": PI2_1E16_PREDICTED,
        "pi2_milestones": PI2_MILESTONES,
        "l2_minus_pi2": L2_MINUS_PI2,
        "twin_bound_multipliers": TWIN_BOUND_MULTIPLIERS,
        "brun_estimates": BRUN_ESTIMATES,
        "brun_reference": BRUN_REFERENCE,
        "brun_kutrib_richstein": BRUN_KUTRIB_RICHSTEIN,
        "goldbach_verified_bound": GOLDBACH_VERIFIED_BOUND,
        "goldbach_r2_1e8": GOLDBACH_R2_1E8,
        "goldbach_small_table": GOLDBACH_SMALL_TABLE,
        "twin_constant": TWIN_CONSTANT_10,
        "twin_constant_doubled": TWIN_CONSTANT_DOUBLED_10,
        "triplet_constant": TRIPLET_CONSTANT_10,
        "quadruplet_constant": QUADRUPLET_CONSTANT_10,
        "quad_residue_constant": QUAD_RESIDUE_CONSTANT_10,
        "quad_residue_constant_doubled": QUAD_RESIDUE_CONSTANT_DOUBLED_10,
        "twin_constant_variant": TWIN_CONSTANT_VARIANT,
        "gap_778": GAP_778,
        "gap_1132": GAP_1132,
        "smallest_missing_gap": SMALLEST_MISSING_GAP,
        "record_twins": RECORD_TWINS,
        "pentium_bug_pair": PENTIUM_BUG_PAIR,
        "millennium_pair": MILLENNIUM_PAIR,
    }
