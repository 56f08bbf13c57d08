"""Command-line surface.

Exit codes: 0 success, 1 a mathematical violation was found (a failed
verification, a violated invariant), 2 usage or checkpoint errors, 3 an
internal error (any other exception).

Every result is written by `_emit`, the one place output is formatted.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable

from . import brun as brun_mod
from . import census, constants, gaps, goldbach, reports
from .config import DEFAULT_SEGMENT_BYTES, Config
from .errors import CheckpointError, MathViolationError, ResourceLimitError

__all__ = ["main", "build_parser", "int_arg", "exit_status"]


def int_arg(text: str) -> int:
    """Parse integers given plainly, with underscores, or as 1e8-style.

    The value is read exactly: 1.0000000000000001e16 is 10**16 + 1, and
    1000000000.5 is rejected rather than rounded.
    """
    s = text.replace("_", "").replace(",", "")
    try:
        v = Decimal(s)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not v.is_finite() or v != v.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v.adjusted() >= 4300:  # Python's own limit for int(str)
        raise argparse.ArgumentTypeError(f"over 4300 digits: {text!r}")
    return int(v)


def _int_list(text: str) -> list[int]:
    vals = [int_arg(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _offsets_arg(text: str) -> tuple[int, ...]:
    return tuple(_int_list(text))


class _NotResumable(argparse.Action):
    """Claims --checkpoint on jobs without one, so it is not read as a
    prefix of --checkpoints."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"this job is not resumable, so {option_string} "
                     "is not accepted")


def _cfg(args: argparse.Namespace) -> Config:
    return Config(args.segment_bytes, args.threads)


def _emit(args: argparse.Namespace, doc=None, table=None) -> None:
    """Write one result to stdout, or to --out.

    `doc` is written as JSON under --format json, and whenever there is no
    table; a str doc is written as is.  Otherwise `table` is written: a
    (header, rows) pair as CSV, with None as an empty cell, or plain text.
    Namespaces without a format (the scripts') get the table.
    """
    if table is None or getattr(args, "format", "csv") == "json":
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2,
                                                           default=str)
    elif isinstance(table, str):
        text = table
    else:
        header, rows = table
        text = "\n".join([header] + [
            ",".join(["" if v is None else str(v) for v in row])
            for row in rows])
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# sieve

def _cmd_sieve(args) -> int:
    if args.action == "count":
        total = census.count_primes(2, args.limit, _cfg(args))
        _emit(args, {"limit": args.limit, "count": total},
              ("limit,count", [(args.limit, total)]))
    elif args.action == "primes":
        from .sieve import primes_array
        ps = [int(p) for p in primes_array(args.limit, _cfg(args))]
        _emit(args, {"limit": args.limit, "primes": ps},
              ("p", ((p,) for p in ps)))
    elif args.action == "factor":
        from .sieve import factorize_64
        f = factorize_64(args.n)
        _emit(args, {"n": args.n, "factors": f.as_dict()},
              ("prime,exponent", f.factors))
    else:  # isprime
        from .sieve import is_prime_64, prp_test
        n = args.n
        if n < 2**64:
            verdict, how = is_prime_64(n), "deterministic"
        elif n % 2 == 0:  # prp_test takes odd n only
            verdict, how = False, "deterministic"
        else:
            verdict, how = prp_test(n), "probable"
        _emit(args, {"n": n, "prime": bool(verdict), "method": how},
              ("n,prime,method", [(n, verdict, how)]))
    return 0


# ---------------------------------------------------------------------------
# census

def _cmd_census(args) -> int:
    if args.shape == "pairs":
        if args.gap < 2 or args.gap % 2:
            raise ValueError("--gap must be a positive even number")
        table = census.count_pairs_2k(args.gap // 2, args.limit,
                                      args.checkpoints, cfg=_cfg(args),
                                      checkpoint_path=args.checkpoint,
                                      checkpoint_stride=args.stride)
    elif args.shape == "pattern":
        table = census.count_pattern(args.offsets, args.limit,
                                     args.checkpoints, cfg=_cfg(args),
                                     checkpoint_path=args.checkpoint,
                                     checkpoint_stride=args.stride)
    elif args.shape == "twin-almost":
        table = census.count_twin_almost_primes(args.limit, args.checkpoints)
    else:  # square1
        table = census.count_square_plus_one(args.limit, args.mode,
                                             args.checkpoints)
    # census JSON is one line
    _emit(args, json.dumps({"tag": table.tag,
                            "rows": [list(r) for r in table.rows]}),
          ("limit,count", table.rows))
    return 0


# ---------------------------------------------------------------------------
# gaps

def _cmd_gaps(args) -> int:
    act = args.action
    if act == "scan":
        scan = gaps.scan_gaps(args.limit, cfg=_cfg(args))
        firsts = sorted(scan.first_occurrences.items())
        # the JSON document carries both kinds
        _emit(args, {"first_occurrences": {str(g): p for g, p in firsts},
                     "maximal": [[r.p, r.gap] for r in scan.maximal]},
              ("gap,first_p", firsts) if args.kind == "firsts" else
              ("p,gap", [(r.p, r.gap) for r in scan.maximal]))
    elif act == "first":
        rec = gaps.first_occurrence(args.gap, args.limit, cfg=_cfg(args))
        p = rec.p if rec else None
        _emit(args, {"gap": args.gap, "limit": args.limit, "first_p": p},
              ("gap,first_p", [(args.gap, p)]))
    elif act == "missing":
        miss = gaps.missing_gaps(args.limit, args.max_gap, cfg=_cfg(args))
        _emit(args, {"limit": args.limit, "missing": miss},
              ("gap", ((g,) for g in miss)))
    elif act == "extremes":
        ex = gaps.normalized_gap_extremes(args.limit, cfg=_cfg(args))
        _emit(args, ex._asdict(), ("which,value,p,gap", [
            ("min", ex.min_value, *ex.min_witness),
            ("max", ex.max_value, *ex.max_witness)]))
    elif act == "interval":
        res = gaps.interval_prime_count(args.x, args.theta)
        _emit(args, res._asdict(), ("count,expected,ratio", [res]))
    elif act == "between-squares":
        out = gaps.primes_between_squares(args.n)
        _emit(args, {"n": args.n, "exceptions": out},
              ("n_without_prime", ((v,) for v in out)))
    elif act == "short-interval":
        frac = gaps.short_interval_above_square(args.n, args.exponent)
        _emit(args, {"n": args.n, "exponent": args.exponent,
                     "hit_fraction": frac},
              ("n,exponent,hit_fraction", [(args.n, args.exponent, frac)]))
    else:  # hunt
        rec = gaps.hunt_gap(args.gap, args.stop, start=args.start,
                            cfg=_cfg(args), checkpoint_path=args.checkpoint,
                            checkpoint_stride=args.stride)
        p = rec.p if rec else None
        _emit(args, {"gap": args.gap, "stop": args.stop, "found_p": p},
              ("gap,first_p", [(args.gap, p)]))
    return 0


# ---------------------------------------------------------------------------
# constants

def _cmd_constants(args) -> int:
    which = args.which
    if which in ("twin", "pattern", "quad", "zeta", "prime-zeta"):
        if which == "twin":
            hpv = constants.twin_constant(args.digits)
        elif which == "pattern":
            hpv = constants.pattern_constant(args.offsets, args.digits)
        elif which == "quad":
            hpv = constants.quad_constant(args.digits)
        elif which == "zeta":
            hpv = constants.zeta(args.s, args.digits)
        else:
            hpv = constants.prime_zeta(args.s, args.digits, args.character)
        _emit(args, {"value": hpv.decimal_str(),
                     "abs_error_bound": str(hpv.abs_error_bound),
                     "digits": hpv.digits_requested,
                     "method": hpv.method}, hpv.decimal_str())
    elif which == "li2":
        v = constants.li2(args.x, args.rel_tol)
        _emit(args, {"x": args.x, "li2": v}, repr(v))
    elif which == "predict":
        params = {}
        if args.k is not None:
            params["k"] = args.k
        if args.offsets is not None:
            params["pattern"] = args.offsets
        pred = constants.predict(args.quantity, args.x, params)
        _emit(args, {"quantity": pred.quantity, "x": pred.x,
                     "value": pred.value, "params": pred.params},
              ("quantity,x,value", [(pred.quantity, pred.x, pred.value)]))
    elif which == "bounds":
        rep = constants.historical_bounds(args.x)
        rows = [*rep.values.items()] + [
            (f"multiplier_{y}_{n.replace(' ', '_').replace(',', '')}", v)
            for y, _c, n, v in rep.multipliers]
        _emit(args, {"x": rep.x, "values": rep.values,
                     "multipliers": rep.multipliers}, ("name,value", rows))
    else:  # report
        _emit(args, constants.json_report(args.digits, args.quad_digits))
    return 0


# ---------------------------------------------------------------------------
# brun

def _cmd_brun(args) -> int:
    if args.action == "extrapolate":  # text only
        v = brun_mod.brun_extrapolate(args.sum, args.limit)
        _emit(args, brun_mod.format_sum(v))
        return 0
    marks = args.checkpoints
    if args.action == "table" and marks is None:
        marks = sorted(set(brun_mod.estimate_marks(args.limit))
                       | {args.limit})
    rows = brun_mod.brun_partial(args.limit, marks, cfg=_cfg(args),
                                 checkpoint_path=args.checkpoint,
                                 checkpoint_stride=args.stride)
    if args.action == "partial":
        cells = [(r.limit, brun_mod.format_sum(r.sum), r.pair_count)
                 for r in rows]
        _emit(args, [{"limit": l, "sum": s, "pair_count": c}
                     for l, s, c in cells], ("limit,sum,pair_count", cells))
    else:  # table
        rep = brun_mod.brun_table_report(rows)
        _emit(args, {
            "rows": [r._asdict() for r in rep["rows"]],
            "reference": rep["reference"].value,
            "reference_citation": rep["reference"].citation,
            "alternate_reference": rep["alternate_reference"].value,
            "extrapolation": rep["extrapolation"],
        }, ("limit,raw_sum,extrapolated_conditional,published_estimate,"
            "published_error,published_by,vs_reference", rep["rows"]))
    return 0


# ---------------------------------------------------------------------------
# goldbach

def _cmd_goldbach(args) -> int:
    act = args.action
    status = 0
    if act == "verify":
        bad = goldbach.verify_goldbach(args.lo, args.hi)
        _emit(args, {"from": args.lo, "to": args.hi, "violation": bad},
              ("from,to,violation", [(args.lo, args.hi, bad)]))
        status = bad is not None
    elif act == "count":
        c = goldbach.count_representations(args.n, args.convention,
                                           args.allow_one)
        _emit(args, {"n": args.n, "convention": args.convention,
                     "allow_one": args.allow_one, "count": c},
              ("n,convention,count", [(args.n, args.convention, c)]))
    elif act == "report":
        _emit(args, goldbach.representation_report(args.n))
    elif act == "euler":
        bad = goldbach.euler_variant_check(args.limit)
        _emit(args, {"limit": args.limit, "violations": bad},
              ("violation", ((v,) for v in bad)))
        status = bool(bad)
    elif act == "three":
        t = goldbach.three_primes(args.n)
        _emit(args, {"n": args.n, "parts": list(t)}, ("p1,p2,p3", [t]))
    elif act == "exceptional":
        res = goldbach.exceptional_count(args.x)
        _emit(args, res._asdict(), ("count,ratio", [res]))
        status = res.count != 0
    else:  # chen
        _emit(args, goldbach.chen_comparison(args.x, args.sample_n))
    return int(status)


# ---------------------------------------------------------------------------
# report

def _cmd_report(args) -> int:
    # text only; the document already ends in a newline
    _emit(args, reports.build_comparison_document(args.limit, cfg=_cfg(args)))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to a file")
    # only the jobs that walk segments take run settings
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--threads", type=int, default=1, help="worker threads")
    run.add_argument("--segment-bytes", type=int_arg,
                     default=DEFAULT_SEGMENT_BYTES)
    # only the resumable jobs take a checkpoint file
    resumable = argparse.ArgumentParser(add_help=False)
    resumable.add_argument("--checkpoint", default=None,
                           help="resumable checkpoint file path")
    fixed = argparse.ArgumentParser(add_help=False)
    fixed.add_argument("--checkpoint", action=_NotResumable,
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p = argparse.ArgumentParser(prog="primelab",
                                description="prime constellation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sieve", help="basic prime tooling")
    ss = ps.add_subparsers(dest="action", required=True)
    c = ss.add_parser("count", parents=[common, run])
    c.add_argument("--limit", type=int_arg, required=True)
    c = ss.add_parser("primes", parents=[common, run])
    c.add_argument("--limit", type=int_arg, required=True)
    c = ss.add_parser("factor", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    c = ss.add_parser("isprime", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    ps.set_defaults(func=_cmd_sieve)

    pc = sub.add_parser("census", help="constellation counting")
    sc = pc.add_subparsers(dest="shape", required=True)
    c = sc.add_parser("pairs", parents=[common, run, resumable])
    c.add_argument("--gap", type=int_arg, default=2)
    c.add_argument("--limit", type=int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c.add_argument("--stride", type=int_arg, default=1 << 28)
    c = sc.add_parser("pattern", parents=[common, run, resumable])
    c.add_argument("--offsets", type=_offsets_arg, required=True)
    c.add_argument("--limit", type=int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c.add_argument("--stride", type=int_arg, default=1 << 28)
    c = sc.add_parser("twin-almost", parents=[common, fixed])
    c.add_argument("--limit", type=int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c = sc.add_parser("square1", parents=[common, fixed])
    c.add_argument("--limit", type=int_arg, required=True)
    c.add_argument("--mode", choices=("prime", "omega_le_2", "bigomega_le_2"),
                   default="prime")
    c.add_argument("--checkpoints", type=_int_list, default=None)
    pc.set_defaults(func=_cmd_census)

    pg = sub.add_parser("gaps", help="prime gap statistics")
    sg = pg.add_subparsers(dest="action", required=True)
    c = sg.add_parser("scan", parents=[common, run])
    c.add_argument("--limit", type=int_arg, required=True)
    c.add_argument("--kind", choices=("firsts", "records"), default="firsts")
    c = sg.add_parser("first", parents=[common, run])
    c.add_argument("--gap", type=int_arg, required=True)
    c.add_argument("--limit", type=int_arg, required=True)
    c = sg.add_parser("missing", parents=[common, run])
    c.add_argument("--limit", type=int_arg, required=True)
    c.add_argument("--max-gap", type=int_arg, required=True)
    c = sg.add_parser("extremes", parents=[common, run])
    c.add_argument("--limit", type=int_arg, required=True)
    c = sg.add_parser("interval", parents=[common])
    c.add_argument("--x", type=int_arg, required=True)
    c.add_argument("--theta", type=Fraction, required=True)
    c = sg.add_parser("between-squares", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    c = sg.add_parser("short-interval", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    c.add_argument("--exponent", type=float, default=1.5)
    c = sg.add_parser("hunt", parents=[common, run, resumable])
    c.add_argument("--gap", type=int_arg, required=True)
    c.add_argument("--stop", type=int_arg, required=True)
    c.add_argument("--start", type=int_arg, default=2)
    c.add_argument("--stride", type=int_arg, default=1 << 30)
    pg.set_defaults(func=_cmd_gaps)

    pk = sub.add_parser("constants",
                        help="high-precision constants and predictions")
    sk = pk.add_subparsers(dest="which", required=True)
    c = sk.add_parser("twin", parents=[common])
    c.add_argument("--digits", type=int, default=10)
    c = sk.add_parser("pattern", parents=[common])
    c.add_argument("--offsets", type=_offsets_arg, required=True)
    c.add_argument("--digits", type=int, default=10)
    c = sk.add_parser("quad", parents=[common])
    c.add_argument("--digits", type=int, default=10)
    c = sk.add_parser("zeta", parents=[common])
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--digits", type=int, default=15)
    c = sk.add_parser("prime-zeta", parents=[common])
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--digits", type=int, default=15)
    c.add_argument("--character", choices=("trivial", "mod4"),
                   default="trivial")
    c = sk.add_parser("li2", parents=[common])
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--rel-tol", type=float, default=1e-10)
    c = sk.add_parser("predict", parents=[common])
    c.add_argument("--quantity", required=True,
                   choices=("pi2k", "l2", "pattern", "goldbach_r", "qn"))
    c.add_argument("--x", type=int_arg, required=True)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--offsets", type=_offsets_arg, default=None)
    c = sk.add_parser("bounds", parents=[common])
    c.add_argument("--x", type=int_arg, required=True)
    c = sk.add_parser("report", parents=[common])
    c.add_argument("--digits", type=int, default=10)
    c.add_argument("--quad-digits", type=int, default=10)
    pk.set_defaults(func=_cmd_constants)

    pb = sub.add_parser("brun", help="twin reciprocal sums")
    sb = pb.add_subparsers(dest="action", required=True)
    for action in ("partial", "table"):
        c = sb.add_parser(action, parents=[common, run, resumable])
        c.add_argument("--limit", type=int_arg, required=True)
        c.add_argument("--checkpoints", type=_int_list, default=None)
        c.add_argument("--stride", type=int_arg, default=1 << 28)
    c = sb.add_parser("extrapolate", parents=[common])
    c.add_argument("--sum", required=True)
    c.add_argument("--limit", type=int_arg, required=True)
    pb.set_defaults(func=_cmd_brun)

    pgb = sub.add_parser("goldbach", help="two-prime decompositions")
    sgb = pgb.add_subparsers(dest="action", required=True)
    c = sgb.add_parser("verify", parents=[common])
    c.add_argument("--from", dest="lo", type=int_arg, required=True)
    c.add_argument("--to", dest="hi", type=int_arg, required=True)
    c = sgb.add_parser("count", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    c.add_argument("--convention", choices=("unordered", "ordered"),
                   default="unordered")
    c.add_argument("--allow-one", action="store_true")
    c = sgb.add_parser("report", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    c = sgb.add_parser("euler", parents=[common])
    c.add_argument("--limit", type=int_arg, required=True)
    c = sgb.add_parser("three", parents=[common])
    c.add_argument("--n", type=int_arg, required=True)
    c = sgb.add_parser("exceptional", parents=[common])
    c.add_argument("--x", type=int_arg, required=True)
    c = sgb.add_parser("chen", parents=[common])
    c.add_argument("--x", type=int_arg, required=True)
    c.add_argument("--sample-n", type=int_arg, default=None)
    pgb.set_defaults(func=_cmd_goldbach)

    pr = sub.add_parser("report", help="comparison documents")
    sr = pr.add_subparsers(dest="action", required=True)
    c = sr.add_parser("paper-tables", parents=[common, run])
    c.add_argument("--limit", type=int_arg, default=10**8)
    pr.set_defaults(func=_cmd_report)

    return p


def exit_status(run: Callable[[], int]) -> int:
    """run()'s status, or the status of the exception it raised: 1 for a
    mathematical violation only, 2 for usage, checkpoint and resource
    errors, 3 for anything else.  The scripts' mains end here too."""
    try:
        return run()
    except MathViolationError as exc:
        print(f"mathematical violation: {exc}", file=sys.stderr)
        return 1
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc} (progress: {exc.progress})",
              file=sys.stderr)
        return 2
    except Exception as exc:
        # status 1 must keep meaning "violation", so a crash gets its own
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
