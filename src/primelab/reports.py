"""Side-by-side comparison document: fresh computations vs published values.

Every published number is printed with its citation and never mutated;
computed values come from live runs at the requested limit.  Where the
two disagree the document says so rather than silently preferring one.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

from . import brun as brun_mod
from . import census, constants, gaps, goldbach, refdata
from .config import Config
from .scan import decade_marks

__all__ = ["build_comparison_document"]

_DEF_LIMIT = 10**8


def _fmt_int(n: int) -> str:
    return f"{n:,}"


def _digits_of(k: int, base: int, exponent: int) -> int:
    """Decimal length of k * base**exponent without materializing it."""
    with localcontext() as ctx:
        ctx.prec = 40
        lg = Decimal(k).log10() + exponent * Decimal(base).log10()
        return int(lg.to_integral_value(rounding="ROUND_FLOOR")) + 1


def _census_section(limit: int, cfg: Config | None, lines: list[str]) -> dict[int, int]:
    marks = decade_marks(limit)
    table = census.count_pairs_2k(1, limit, marks or None, cfg=cfg)
    counts = dict(table.rows)
    lines.append("## Twin pair census by decade")
    lines.append("")
    lines.append("| limit | computed | published | match | citation |")
    lines.append("|---|---|---|---|---|")
    for x in marks:
        ref = refdata.PI2_BY_DECADE.get(x)
        computed = counts[x]
        if ref is None:
            lines.append(f"| {_fmt_int(x)} | {_fmt_int(computed)} | - | - | - |")
            continue
        ok = "yes" if computed == ref.value else "NO"
        lines.append(f"| {_fmt_int(x)} | {_fmt_int(computed)} | "
                     f"{_fmt_int(ref.value)} | {ok} | {ref.citation} |")
    lines.append("")
    return counts


def _prediction_section(counts: dict[int, int], lines: list[str]) -> None:
    lines.append("## Density-integral prediction vs census")
    lines.append("")
    lines.append("Prediction L2(x) = 2 alpha li2(x); the published column is")
    lines.append("the classical tabulation of L2(x) - pi2(x).")
    lines.append("")
    lines.append("| x | computed diff | published diff | citation |")
    lines.append("|---|---|---|---|")
    for x, pi2 in counts.items():
        ref = refdata.L2_MINUS_PI2.get(x)
        if ref is None:
            continue
        diff = constants.predict("l2", x).value - pi2
        lines.append(f"| {_fmt_int(x)} | {diff:+.1f} | {ref.value:+d} "
                     f"| {ref.citation} |")
    lines.append("")


def _constants_section(lines: list[str]) -> None:
    rows = (
        ("alpha", constants.twin_constant(10), refdata.TWIN_CONSTANT_10),
        ("2 alpha", constants.pattern_constant((0, 2), 10),
         refdata.TWIN_CONSTANT_DOUBLED_10),
        ("triplet", constants.pattern_constant((0, 2, 6), 10),
         refdata.TRIPLET_CONSTANT_10),
        ("quadruplet", constants.pattern_constant((0, 2, 6, 8), 10),
         refdata.QUADRUPLET_CONSTANT_10),
        ("m^2+1 (half)", constants.quad_constant(10),
         refdata.QUAD_RESIDUE_CONSTANT_10),
    )
    lines.append("## Density constants at 10 decimal places")
    lines.append("")
    lines.append("| constant | computed (rounded) | published | agreement |")
    lines.append("|---|---|---|---|")
    for name, hpv, ref in rows:
        mine = hpv.decimal_str()
        if mine == ref.value:
            verdict = "exact"
        elif abs(Decimal(mine) - Decimal(str(ref.value))) <= Decimal("1e-10"):
            verdict = "published value truncated, not rounded"
        else:
            verdict = "DISAGREES"
        lines.append(f"| {name} | {mine} | {ref.value} | {verdict} |")
    variant = refdata.TWIN_CONSTANT_VARIANT
    lines.append("")
    lines.append(f"A variant printing {variant.value} circulates "
                 f"({variant.citation}); it drops a digit of "
                 f"{refdata.TWIN_CONSTANT_10.value}.")
    lines.append("")


def _bounds_section(x: int, pi2_limit: int, lines: list[str]) -> None:
    rep = constants.historical_bounds(x)
    lines.append(f"## Published upper bounds evaluated at {_fmt_int(x)}")
    lines.append("")
    lines.append(f"Census value pi2 = {_fmt_int(pi2_limit)}.  Upper bounds "
                 "should exceed it (lower-bound curves are for the")
    lines.append("almost-prime relaxation and sit below the pair count's "
                 "relaxed analogue, not below pi2).")
    lines.append("")
    lines.append("| bound | value at limit | above census? |")
    lines.append("|---|---|---|")
    uppers = ("brun_7200", "brun_100", "explicit_16alpha",
              "riesel_vaughan", "bombieri_davenport")
    for name in uppers:
        v = rep.values[name]
        lines.append(f"| {name} | {v:.4g} | "
                     f"{'yes' if v > pi2_limit else 'NO'} |")
    for name in ("chen_almost_lower", "wu_almost_lower"):
        lines.append(f"| {name} | {rep.values[name]:.4g} | (lower curve) |")
    lines.append("")
    lines.append(f"Multiplier race ({refdata.TWIN_BOUND_CITATION}), bound = "
                 "c * 2 alpha li2(x):")
    lines.append("")
    lines.append("| year | c | authors | value at x |")
    lines.append("|---|---|---|---|")
    for year, c_text, name, value in rep.multipliers:
        lines.append(f"| {year} | {c_text} | {name} | {value:.4g} |")
    lines.append("")


def _brun_section(limit: int, cfg: Config | None, lines: list[str]) -> None:
    marks = sorted(set(brun_mod.estimate_marks(limit) + decade_marks(limit)))
    partials = brun_mod.brun_partial(limit, marks or None, cfg=cfg)
    rep = brun_mod.brun_table_report(partials)
    lines.append("## Reciprocal sums over twin pairs")
    lines.append("")
    lines.append("Extrapolated values assume the pair-density conjecture "
                 "(conjecture-conditional).")
    lines.append("")
    lines.append("| limit | raw sum | extrapolated | published estimate | by |")
    lines.append("|---|---|---|---|---|")
    for row in rep["rows"]:
        pub = ""
        if row.published_estimate is not None:
            err = f" +- {row.published_error}" if row.published_error else ""
            pub = f"{row.published_estimate}{err}"
        ext = row.extrapolated[:14] if row.extrapolated else "-"
        lines.append(f"| {_fmt_int(row.limit)} | {row.raw_sum[:14]} | {ext} "
                     f"| {pub} | {row.published_by or ''} |")
    ref = rep["reference"]
    alt = rep["alternate_reference"]
    lines.append("")
    lines.append(f"Reference value {ref.value} ({ref.citation}); an earlier "
                 f"extrapolation gives {alt.value} ({alt.citation}).")
    lines.append("")


def _goldbach_section(limit: int, lines: list[str]) -> None:
    cap = min(limit, 10**8)
    cap -= cap % 2
    violation = goldbach.verify_goldbach(4, cap)
    lines.append("## Two-prime decompositions")
    lines.append("")
    bound = refdata.GOLDBACH_VERIFIED_BOUND
    lines.append(f"Every even n in [4, {_fmt_int(cap)}] has a two-prime sum: "
                 f"{'CONFIRMED' if violation is None else f'VIOLATED at {violation}'}."
                 f" (Published verification reaches {_fmt_int(bound.value)}; "
                 f"{bound.citation}.)")
    lines.append("")
    lines.append("Exceptional-set count over the scanned range: "
                 f"{0 if violation is None else '>= 1'}.")
    lines.append("")
    n = cap if cap >= 10**4 else 10**4
    rep = goldbach.representation_report(n)
    pub = refdata.GOLDBACH_R2_1E8
    lines.append(f"Representation counts for n = {_fmt_int(n)} "
                 "(both counting methods agree):")
    lines.append("")
    lines.append("| convention | count |")
    lines.append("|---|---|")
    lines.append(f"| unordered (p <= q) | {_fmt_int(rep['unordered'])} |")
    lines.append(f"| ordered | {_fmt_int(rep['ordered'])} |")
    lines.append(f"| unordered, 1 allowed | "
                 f"{_fmt_int(rep['unordered_allow_one'])} |")
    lines.append("")
    if n == 10**8:
        match = any(rep[k] == pub.value for k in
                    ("unordered", "ordered", "unordered_allow_one"))
        lines.append(f"Published count: {_fmt_int(pub.value)} ({pub.citation}). "
                     + ("One convention matches."
                        if match else
                        "No convention reproduces it; the doubly checked "
                        "values above are authoritative."))
        lines.append("")
    b1, b2 = refdata.THREE_PRIME_BOUND_BOROZDKIN, refdata.THREE_PRIME_BOUND_2002
    lines.append(f"Three-prime thresholds (metadata, never computed): "
                 f"{b1.value} ({b1.citation}), later {b2.value} "
                 f"({b2.citation}).")
    lines.append("")


def _gaps_section(limit: int, cfg: Config | None, lines: list[str]) -> None:
    cap = min(limit, 10**7)
    scan = gaps.scan_gaps(cap, cfg=cfg)
    missing = gaps._missing(scan.first_occurrences, 100)
    lines.append(f"## Prime gaps below {_fmt_int(cap)}")
    lines.append("")
    recs = ", ".join(f"({r.p}, {r.gap})" for r in scan.maximal[-6:])
    lines.append(f"Largest maximal-gap records: {recs}.")
    lines.append(f"Even gaps <= 100 missing below the cap: "
                 f"{missing if missing else 'none'}.")
    sm = refdata.SMALLEST_MISSING_GAP
    g778, g1132 = refdata.GAP_778, refdata.GAP_1132
    lines.append("")
    lines.append(f"Long-run targets (resumable jobs, not desk-scale): gap "
                 f"{g778.value[1]} first occurs at {_fmt_int(g778.value[0])} "
                 f"({g778.citation}); gap {g1132.value[1]} at "
                 f"{_fmt_int(g1132.value[0])} ({g1132.citation}); smallest "
                 f"gap with no known occurrence is {sm.value} ({sm.citation}).")
    lines.append("")


def _records_section(lines: list[str]) -> None:
    from .sieve import is_prime_64
    lines.append("## Records and milestones")
    lines.append("")
    big, sebah = refdata.PI2_EXTREME_ROWS
    lines.append(f"- pi2({_fmt_int(big.value[0])}) = {_fmt_int(big.value[1])} "
                 f"({big.citation}).")
    lines.append(f"- pi2({_fmt_int(sebah.value[0])}) = "
                 f"{_fmt_int(sebah.value[1])} ({sebah.citation}).")
    pred = refdata.PI2_1E16_PREDICTED
    alpha2 = 2 * constants._alpha_float()
    live = alpha2 * float(constants.li2_precise(10**16, dps=30))
    lines.append(f"- density prediction at 1e16: published "
                 f"{_fmt_int(pred.value)} ({pred.citation}); recomputed "
                 f"{live:,.0f}.")
    lines.append("")
    lines.append("Census milestones:")
    for lim, author, year in refdata.PI2_MILESTONES:
        lines.append(f"- {_fmt_int(lim)} ({author}, {year})")
    lines.append("")
    lines.append("Titanic twin records k * b^e +/- 1 (digit lengths "
                 "recomputed live):")
    lines.append("")
    lines.append("| k | base | exponent | digits (claimed) | digits "
                 "(recomputed) | year | by |")
    lines.append("|---|---|---|---|---|---|---|")
    for k, b, e, d, year, who in refdata.RECORD_TWINS:
        lines.append(f"| {k} | {b} | {e} | {d} | {_digits_of(k, b, e)} "
                     f"| {year} | {who} |")
    lines.append("")
    for ref in (refdata.PENTIUM_BUG_PAIR, refdata.MILLENNIUM_PAIR):
        p, q = ref.value
        both = is_prime_64(p) and is_prime_64(q)
        lines.append(f"- ({_fmt_int(p)}, {_fmt_int(q)}): "
                     f"{'verified prime pair' if both else 'NOT PRIME'} "
                     f"({ref.citation}).")
    lines.append("")


def _exercises_section(limit: int, lines: list[str]) -> None:
    cap6 = min(limit, 10**6)
    cap4 = min(limit, 10**4)
    perfect = census.perfect_half_sum_scan(cap6)
    witnesses = census.isolated_progression_witnesses(cap4)
    run = census.non_twin_prime_run(3)
    lines.append("## Structural checks")
    lines.append("")
    lines.append(f"- Twin pairs (p, p+2) with (p + p+2)/2 perfect, below "
                 f"{_fmt_int(cap6)}: {perfect}.")
    lines.append(f"- Isolated primes p = 5 (mod 42) with 3 | p-2 and 7 | p+2 "
                 f"below {_fmt_int(cap4)}: {len(witnesses)} "
                 f"(first {witnesses[:4]}).")
    lines.append(f"- First run of 3 consecutive primes with no twin among "
                 f"them: {run}.")
    lines.append("")


def build_comparison_document(limit: int = _DEF_LIMIT, *,
                              cfg: Config | None = None) -> str:
    """Markdown document comparing live computations to the published record."""
    if limit < 10**3:
        raise ValueError("limit must be at least 1000")
    lines: list[str] = []
    lines.append("# Computed values vs the published record")
    lines.append("")
    lines.append(f"Census limit {_fmt_int(limit)}.  Every published value "
                 "carries its citation; computed values are fresh this run.")
    lines.append("")
    counts = _census_section(limit, cfg, lines)
    _prediction_section(counts, lines)
    _constants_section(lines)
    top = max(counts)
    _bounds_section(top, counts[top], lines)
    _brun_section(limit, cfg, lines)
    _goldbach_section(limit, lines)
    _gaps_section(limit, cfg, lines)
    _records_section(lines)
    _exercises_section(limit, lines)
    return "\n".join(lines) + "\n"
