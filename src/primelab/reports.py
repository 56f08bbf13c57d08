"""Side-by-side comparison document: fresh computations vs published values.

Every published number is printed with its citation and never mutated;
computed values come from live runs at the requested limit.  Where the
two disagree the document says so rather than silently preferring one.
"""
from __future__ import annotations

from decimal import Decimal, localcontext

from . import brun as brun_mod
from . import census, constants, gaps, goldbach, refdata
from .config import Config
from .scan import decade_marks

__all__ = ["build_comparison_document"]

_DEF_LIMIT = 10**8


def _fmt_int(n: int) -> str:
    return f"{n:,}"


def _row(cells) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


def _table(header, rows) -> str:
    """A markdown table: the header, its rule, one line per row."""
    return "\n".join([_row(header), "|---" * len(header) + "|",
                      *map(_row, rows)])


def _digits_of(k: int, base: int, exponent: int) -> int:
    """Decimal length of k * base**exponent without materializing it."""
    with localcontext() as ctx:
        ctx.prec = 40
        lg = Decimal(k).log10() + exponent * Decimal(base).log10()
        return int(lg.to_integral_value(rounding="ROUND_FLOOR")) + 1


def _census_section(pi2: dict[int, int]) -> list[str]:
    rows = []
    for x, computed in pi2.items():
        ref = refdata.PI2_BY_DECADE.get(x)
        if ref is None:
            published = ("-", "-", "-")
        else:
            ok = "yes" if computed == ref.value else "NO"
            published = (_fmt_int(ref.value), ok, ref.citation)
        rows.append((_fmt_int(x), _fmt_int(computed), *published))
    return ["## Twin pair census by decade",
            _table(("limit", "computed", "published", "match", "citation"),
                   rows)]


def _prediction_section(pi2: dict[int, int]) -> list[str]:
    rows = []
    for x, count in pi2.items():
        ref = refdata.L2_MINUS_PI2.get(x)
        if ref is not None:
            diff = constants.predict("l2", x).value - count
            rows.append((_fmt_int(x), f"{diff:+.1f}", f"{ref.value:+d}",
                         ref.citation))
    return ["## Density-integral prediction vs census",
            "Prediction L2(x) = 2 alpha li2(x); the published column is\n"
            "the classical tabulation of L2(x) - pi2(x).",
            _table(("x", "computed diff", "published diff", "citation"), rows)]


def _constants_section() -> list[str]:
    computed = (
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
    rows = []
    for name, hpv, ref in computed:
        mine = hpv.decimal_str()
        if mine == ref.value:
            verdict = "exact"
        elif abs(Decimal(mine) - Decimal(str(ref.value))) <= Decimal("1e-10"):
            verdict = "published value truncated, not rounded"
        else:
            verdict = "DISAGREES"
        rows.append((name, mine, ref.value, verdict))
    variant = refdata.TWIN_CONSTANT_VARIANT
    return ["## Density constants at 10 decimal places",
            _table(("constant", "computed (rounded)", "published",
                    "agreement"), rows),
            f"A variant printing {variant.value} circulates "
            f"({variant.citation}); it drops a digit of "
            f"{refdata.TWIN_CONSTANT_10.value}."]


def _bounds_section(x: int, pi2_limit: int) -> list[str]:
    rep = constants.historical_bounds(x)
    uppers = ("brun_7200", "brun_100", "explicit_16alpha",
              "riesel_vaughan", "bombieri_davenport")
    rows = [(name, f"{rep.values[name]:.4g}",
             "yes" if rep.values[name] > pi2_limit else "NO")
            for name in uppers]
    rows += [(name, f"{rep.values[name]:.4g}", "(lower curve)")
             for name in ("chen_almost_lower", "wu_almost_lower")]
    race = [(year, c_text, name, f"{value:.4g}")
            for year, c_text, name, value in rep.multipliers]
    return [f"## Published upper bounds evaluated at {_fmt_int(x)}",
            f"Census value pi2 = {_fmt_int(pi2_limit)}.  Upper bounds "
            "should exceed it (lower-bound curves are for the\n"
            "almost-prime relaxation and sit below the pair count's "
            "relaxed analogue, not below pi2).",
            _table(("bound", "value at limit", "above census?"), rows),
            f"Multiplier race ({refdata.TWIN_BOUND_CITATION}), bound = "
            "c * 2 alpha li2(x):",
            _table(("year", "c", "authors", "value at x"), race)]


def _brun_section(partials: list[brun_mod.BrunRow]) -> list[str]:
    rep = brun_mod.brun_table_report(partials)
    rows = []
    for row in rep["rows"]:
        pub = ""
        if row.published_estimate is not None:
            err = f" +- {row.published_error}" if row.published_error else ""
            pub = f"{row.published_estimate}{err}"
        ext = row.extrapolated[:14] if row.extrapolated else "-"
        rows.append((_fmt_int(row.limit), row.raw_sum[:14], ext, pub,
                     row.published_by or ""))
    ref = rep["reference"]
    alt = rep["alternate_reference"]
    return ["## Reciprocal sums over twin pairs",
            "Extrapolated values assume the pair-density conjecture "
            "(conjecture-conditional).",
            _table(("limit", "raw sum", "extrapolated", "published estimate",
                    "by"), rows),
            f"Reference value {ref.value} ({ref.citation}); an earlier "
            f"extrapolation gives {alt.value} ({alt.citation})."]


def _goldbach_section(limit: int) -> list[str]:
    cap = min(limit, 10**8)
    cap -= cap % 2
    violation = goldbach.verify_goldbach(4, cap)
    bound = refdata.GOLDBACH_VERIFIED_BOUND
    n = cap if cap >= 10**4 else 10**4
    rep = goldbach.representation_report(n)
    blocks = [
        "## Two-prime decompositions",
        f"Every even n in [4, {_fmt_int(cap)}] has a two-prime sum: "
        f"{'CONFIRMED' if violation is None else f'VIOLATED at {violation}'}."
        f" (Published verification reaches {_fmt_int(bound.value)}; "
        f"{bound.citation}.)",
        "Exceptional-set count over the scanned range: "
        f"{0 if violation is None else '>= 1'}.",
        f"Representation counts for n = {_fmt_int(n)} "
        "(both counting methods agree):",
        _table(("convention", "count"), [
            ("unordered (p <= q)", _fmt_int(rep["unordered"])),
            ("ordered", _fmt_int(rep["ordered"])),
            ("unordered, 1 allowed", _fmt_int(rep["unordered_allow_one"]))]),
    ]
    if n == 10**8:
        pub = refdata.GOLDBACH_R2_1E8
        match = any(rep[k] == pub.value for k in
                    ("unordered", "ordered", "unordered_allow_one"))
        blocks.append(f"Published count: {_fmt_int(pub.value)} "
                      f"({pub.citation}). "
                      + ("One convention matches."
                         if match else
                         "No convention reproduces it; the doubly checked "
                         "values above are authoritative."))
    b1, b2 = refdata.THREE_PRIME_BOUND_BOROZDKIN, refdata.THREE_PRIME_BOUND_2002
    blocks.append(f"Three-prime thresholds (metadata, never computed): "
                  f"{b1.value} ({b1.citation}), later {b2.value} "
                  f"({b2.citation}).")
    return blocks


def _gaps_section(limit: int, cfg: Config | None) -> list[str]:
    cap = min(limit, 10**7)
    scan = gaps.scan_gaps(cap, cfg=cfg)
    missing = gaps._missing(scan.first_occurrences, 100)
    recs = ", ".join(f"({r.p}, {r.gap})" for r in scan.maximal[-6:])
    sm = refdata.SMALLEST_MISSING_GAP
    g778, g1132 = refdata.GAP_778, refdata.GAP_1132
    return [f"## Prime gaps below {_fmt_int(cap)}",
            f"Largest maximal-gap records: {recs}.\n"
            f"Even gaps <= 100 missing below the cap: "
            f"{missing if missing else 'none'}.",
            f"Long-run targets (resumable jobs, not desk-scale): gap "
            f"{g778.value[1]} first occurs at {_fmt_int(g778.value[0])} "
            f"({g778.citation}); gap {g1132.value[1]} at "
            f"{_fmt_int(g1132.value[0])} ({g1132.citation}); smallest "
            f"gap with no known occurrence is {sm.value} ({sm.citation})."]


def _records_section() -> list[str]:
    from .sieve import is_prime_64
    big, sebah = refdata.PI2_EXTREME_ROWS
    pred = refdata.PI2_1E16_PREDICTED
    alpha2 = 2 * constants._alpha_float()
    live = alpha2 * float(constants.li2_precise(10**16, dps=30))
    records = [(k, b, e, d, _digits_of(k, b, e), year, who)
               for k, b, e, d, year, who in refdata.RECORD_TWINS]
    pairs = []
    for ref in (refdata.PENTIUM_BUG_PAIR, refdata.MILLENNIUM_PAIR):
        p, q = ref.value
        both = is_prime_64(p) and is_prime_64(q)
        pairs.append(f"- ({_fmt_int(p)}, {_fmt_int(q)}): "
                     f"{'verified prime pair' if both else 'NOT PRIME'} "
                     f"({ref.citation}).")
    return [
        "## Records and milestones",
        f"- pi2({_fmt_int(big.value[0])}) = {_fmt_int(big.value[1])} "
        f"({big.citation}).\n"
        f"- pi2({_fmt_int(sebah.value[0])}) = {_fmt_int(sebah.value[1])} "
        f"({sebah.citation}).\n"
        f"- density prediction at 1e16: published {_fmt_int(pred.value)} "
        f"({pred.citation}); recomputed {live:,.0f}.",
        "\n".join(["Census milestones:",
                   *(f"- {_fmt_int(lim)} ({author}, {year})"
                     for lim, author, year in refdata.PI2_MILESTONES)]),
        "Titanic twin records k * b^e +/- 1 (digit lengths recomputed live):",
        _table(("k", "base", "exponent", "digits (claimed)",
                "digits (recomputed)", "year", "by"), records),
        "\n".join(pairs),
    ]


def _exercises_section(limit: int) -> list[str]:
    cap6 = min(limit, 10**6)
    cap4 = min(limit, 10**4)
    perfect = census.perfect_half_sum_scan(cap6)
    witnesses = census.isolated_progression_witnesses(cap4)
    run = census.non_twin_prime_run(3)
    return ["## Structural checks",
            f"- Twin pairs (p, p+2) with (p + p+2)/2 perfect, below "
            f"{_fmt_int(cap6)}: {perfect}.\n"
            f"- Isolated primes p = 5 (mod 42) with 3 | p-2 and 7 | p+2 "
            f"below {_fmt_int(cap4)}: {len(witnesses)} "
            f"(first {witnesses[:4]}).\n"
            f"- First run of 3 consecutive primes with no twin among "
            f"them: {run}."]


def build_comparison_document(limit: int = _DEF_LIMIT, *,
                              cfg: Config | None = None) -> str:
    """Markdown document comparing live computations to the published record.

    One twin walk: the Brun sums at the decades and the estimate marks
    also carry the pair counts that the census rows print.
    """
    if limit < 10**3:
        raise ValueError("limit must be at least 1000")
    decades = decade_marks(limit)
    partials = brun_mod.brun_partial(
        limit, sorted({*brun_mod.estimate_marks(limit), *decades}), cfg=cfg)
    pi2 = {row.limit: row.pair_count for row in partials
           if row.limit in decades}
    top = decades[-1]
    blocks = [
        "# Computed values vs the published record",
        f"Census limit {_fmt_int(limit)}.  Every published value "
        "carries its citation; computed values are fresh this run.",
        *_census_section(pi2),
        *_prediction_section(pi2),
        *_constants_section(),
        *_bounds_section(top, pi2[top]),
        *_brun_section(partials),
        *_goldbach_section(limit),
        *_gaps_section(limit, cfg),
        *_records_section(),
        *_exercises_section(limit),
    ]
    return "\n\n".join(blocks) + "\n\n"
