"""Command-line surface.

Exit codes: 0 success, 1 a mathematical violation was found (a failed
verification, a violated invariant), 2 usage or checkpoint errors, 3 an
internal error (any other exception).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import brun as brun_mod
from . import census, constants, gaps, goldbach, reports
from .config import Config, from_file, resolve
from .errors import CheckpointError, MathViolationError, ResourceLimitError

__all__ = ["main", "build_parser"]


def _int_arg(text: str) -> int:
    """Parse integers given plainly, with underscores, or as 1e8-style."""
    s = text.replace("_", "").replace(",", "")
    try:
        return int(s)
    except ValueError:
        pass
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    iv = int(round(v))
    if not math.isfinite(v) or abs(v - iv) > 1e-9 * max(1.0, abs(v)):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return iv


def _int_list(text: str) -> list[int]:
    vals = [_int_arg(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _offsets_arg(text: str) -> tuple[int, ...]:
    return tuple(_int_list(text))


def _cfg(args: argparse.Namespace) -> Config:
    base = from_file(args.config) if args.config else None
    return resolve(base, segment_bytes=args.segment_bytes,
                   threads=args.threads)


def _emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, obj) -> None:
    _emit(args, json.dumps(obj, indent=2, default=str))


def _emit_table(args: argparse.Namespace, table) -> None:
    if args.format == "json":
        _emit(args, table.to_json())
    else:
        _emit(args, table.to_csv())


# ---------------------------------------------------------------------------
# sieve

def _cmd_sieve(args) -> int:
    cfg = _cfg(args)
    if args.action == "count":
        from .sieve import iter_segments
        total = 0
        for seg in iter_segments(args.limit, cfg):
            total += seg.count()
        if args.format == "json":
            _emit_json(args, {"limit": args.limit, "count": total})
        else:
            _emit(args, f"limit,count\n{args.limit},{total}")
    elif args.action == "primes":
        from .sieve import primes_array
        ps = primes_array(args.limit, cfg)
        if args.format == "json":
            _emit_json(args, {"limit": args.limit,
                              "primes": [int(p) for p in ps]})
        else:
            _emit(args, "\n".join(["p"] + [str(int(p)) for p in ps]))
    elif args.action == "factor":
        from .sieve import factorize_64
        f = factorize_64(args.n)
        if args.format == "json":
            _emit_json(args, {"n": args.n, "factors": f.as_dict()})
        else:
            _emit(args, "prime,exponent\n" +
                  "\n".join(f"{p},{e}" for p, e in f.factors))
    else:  # isprime
        from .sieve import is_prime_64, prp_test
        n = args.n
        if n < 2**64:
            verdict, how = is_prime_64(n), "deterministic"
        else:
            verdict, how = prp_test(n), "probable"
        if args.format == "json":
            _emit_json(args, {"n": n, "prime": bool(verdict), "method": how})
        else:
            _emit(args, f"n,prime,method\n{n},{verdict},{how}")
        return 0
    return 0


# ---------------------------------------------------------------------------
# census

def _cmd_census(args) -> int:
    cfg = _cfg(args)
    if args.shape == "pairs":
        if args.gap < 2 or args.gap % 2:
            raise ValueError("--gap must be a positive even number")
        table = census.count_pairs_2k(args.gap // 2, args.limit,
                                      args.checkpoints, cfg=cfg,
                                      checkpoint_path=args.checkpoint,
                                      checkpoint_stride=args.stride)
    elif args.shape == "pattern":
        table = census.count_pattern(args.offsets, args.limit,
                                     args.checkpoints, cfg=cfg,
                                     checkpoint_path=args.checkpoint,
                                     checkpoint_stride=args.stride)
    elif args.shape == "twin-almost":
        table = census.count_twin_almost_primes(args.limit, args.checkpoints,
                                                cfg=cfg)
    else:  # square1
        table = census.count_square_plus_one(args.limit, args.mode,
                                             args.checkpoints)
    _emit_table(args, table)
    return 0


# ---------------------------------------------------------------------------
# gaps

def _cmd_gaps(args) -> int:
    cfg = _cfg(args)
    act = args.action
    if act == "scan":
        scan = gaps.scan_gaps(args.limit, cfg=cfg)
        if args.format == "json":
            _emit_json(args, {
                "first_occurrences": {str(g): p for g, p
                                      in sorted(scan.first_occurrences.items())},
                "maximal": [[r.p, r.gap] for r in scan.maximal],
            })
        elif args.kind == "firsts":
            _emit(args, gaps.first_occurrences_csv(scan.first_occurrences))
        else:
            _emit(args, gaps.records_csv(scan.maximal))
    elif act == "first":
        rec = gaps.first_occurrence(args.gap, args.limit, cfg=cfg)
        if args.format == "json":
            _emit_json(args, {"gap": args.gap, "limit": args.limit,
                              "first_p": rec.p if rec else None})
        else:
            _emit(args, f"gap,first_p\n{args.gap},{rec.p if rec else ''}")
    elif act == "missing":
        miss = gaps.missing_gaps(args.limit, args.max_gap, cfg=cfg)
        if args.format == "json":
            _emit_json(args, {"limit": args.limit, "missing": miss})
        else:
            _emit(args, "\n".join(["gap"] + [str(g) for g in miss]))
    elif act == "extremes":
        ex = gaps.normalized_gap_extremes(args.limit, cfg=cfg)
        if args.format == "json":
            _emit_json(args, ex._asdict())
        else:
            _emit(args, "which,value,p,gap\n"
                  f"min,{ex.min_value},{ex.min_witness[0]},{ex.min_witness[1]}\n"
                  f"max,{ex.max_value},{ex.max_witness[0]},{ex.max_witness[1]}")
    elif act == "interval":
        res = gaps.interval_prime_count(args.x, args.theta)
        if args.format == "json":
            _emit_json(args, res._asdict())
        else:
            _emit(args, "count,expected,ratio\n"
                  f"{res.count},{res.expected},{res.ratio}")
    elif act == "between-squares":
        out = gaps.primes_between_squares(args.n)
        if args.format == "json":
            _emit_json(args, {"n": args.n, "exceptions": out})
        else:
            _emit(args, "\n".join(["n_without_prime"] + [str(v) for v in out]))
    elif act == "short-interval":
        frac = gaps.short_interval_above_square(args.n, args.exponent)
        if args.format == "json":
            _emit_json(args, {"n": args.n, "exponent": args.exponent,
                              "hit_fraction": frac})
        else:
            _emit(args, f"n,exponent,hit_fraction\n"
                        f"{args.n},{args.exponent},{frac}")
    else:  # hunt
        rec = gaps.hunt_gap(args.gap, args.stop, start=args.start, cfg=cfg,
                            checkpoint_path=args.checkpoint,
                            checkpoint_stride=args.stride)
        if args.format == "json":
            _emit_json(args, {"gap": args.gap, "stop": args.stop,
                              "found_p": rec.p if rec else None})
        else:
            _emit(args, f"gap,first_p\n{args.gap},{rec.p if rec else ''}")
    return 0


# ---------------------------------------------------------------------------
# constants

def _hpv_out(args, hpv) -> None:
    if args.format == "json":
        _emit_json(args, {
            "value": hpv.decimal_str(),
            "abs_error_bound": str(hpv.abs_error_bound),
            "digits": hpv.digits_requested,
            "method": hpv.method,
        })
    else:
        _emit(args, hpv.decimal_str())


def _cmd_constants(args) -> int:
    which = args.which
    if which == "twin":
        _hpv_out(args, constants.twin_constant(args.digits))
    elif which == "pattern":
        _hpv_out(args, constants.pattern_constant(args.offsets, args.digits))
    elif which == "quad":
        _hpv_out(args, constants.quad_constant(args.digits))
    elif which == "zeta":
        _hpv_out(args, constants.zeta(args.s, args.digits))
    elif which == "prime-zeta":
        _hpv_out(args, constants.prime_zeta(args.s, args.digits,
                                            args.character))
    elif which == "li2":
        v = constants.li2(args.x, args.rel_tol)
        if args.format == "json":
            _emit_json(args, {"x": args.x, "li2": v})
        else:
            _emit(args, repr(v))
    elif which == "predict":
        params = {}
        if args.k is not None:
            params["k"] = args.k
        if args.offsets is not None:
            params["pattern"] = args.offsets
        pred = constants.predict(args.quantity, args.x, params)
        if args.format == "json":
            _emit_json(args, {"quantity": pred.quantity, "x": pred.x,
                              "value": pred.value, "params": pred.params})
        else:
            _emit(args, f"quantity,x,value\n{pred.quantity},{pred.x},"
                        f"{pred.value!r}")
    elif which == "bounds":
        rep = constants.historical_bounds(args.x)
        if args.format == "json":
            _emit_json(args, {"x": rep.x, "values": rep.values,
                              "multipliers": rep.multipliers})
        else:
            rows = ["name,value"]
            rows += [f"{k},{v!r}" for k, v in rep.values.items()]
            rows += [f"multiplier_{y}_{n.replace(' ', '_').replace(',', '')},{v!r}"
                     for y, _c, n, v in rep.multipliers]
            _emit(args, "\n".join(rows))
    else:  # report
        _emit_json(args, constants.json_report(args.digits, args.quad_digits))
    return 0


# ---------------------------------------------------------------------------
# brun

def _cmd_brun(args) -> int:
    cfg = _cfg(args)
    if args.action == "partial":
        rows = brun_mod.brun_partial(args.limit, args.checkpoints, cfg=cfg,
                                     checkpoint_path=args.checkpoint,
                                     checkpoint_stride=args.stride)
        if args.format == "json":
            _emit_json(args, [{"limit": r.limit,
                               "sum": brun_mod.format_longdouble(r.sum),
                               "pair_count": r.pair_count} for r in rows])
        else:
            _emit(args, "\n".join(
                ["limit,sum,pair_count"]
                + [f"{r.limit},{brun_mod.format_longdouble(r.sum)},"
                   f"{r.pair_count}" for r in rows]))
    elif args.action == "table":
        marks = args.checkpoints
        if marks is None:
            marks = sorted(set(brun_mod.estimate_marks(args.limit))
                           | {args.limit})
        rows = brun_mod.brun_partial(args.limit, marks, cfg=cfg,
                                     checkpoint_path=args.checkpoint,
                                     checkpoint_stride=args.stride)
        rep = brun_mod.brun_table_report(rows)
        if args.format == "json":
            _emit_json(args, {
                "rows": [r._asdict() for r in rep["rows"]],
                "reference": rep["reference"].value,
                "reference_citation": rep["reference"].citation,
                "alternate_reference": rep["alternate_reference"].value,
                "extrapolation": rep["extrapolation"],
            })
        else:
            lines = ["limit,raw_sum,extrapolated_conditional,"
                     "published_estimate,published_error,published_by,"
                     "vs_reference"]
            for r in rep["rows"]:
                lines.append(",".join("" if v is None else str(v)
                                      for v in r))
            _emit(args, "\n".join(lines))
    else:  # extrapolate
        v = brun_mod.brun_extrapolate(brun_mod.parse_longdouble(args.sum),
                                      args.limit)
        _emit(args, brun_mod.format_longdouble(v))
    return 0


# ---------------------------------------------------------------------------
# goldbach

def _cmd_goldbach(args) -> int:
    act = args.action
    if act == "verify":
        bad = goldbach.verify_goldbach(args.lo, args.hi)
        if args.format == "json":
            _emit_json(args, {"from": args.lo, "to": args.hi,
                              "violation": bad})
        else:
            _emit(args, f"from,to,violation\n{args.lo},{args.hi},"
                        f"{'' if bad is None else bad}")
        return 0 if bad is None else 1
    if act == "count":
        c = goldbach.count_representations(args.n, args.convention,
                                           args.allow_one)
        if args.format == "json":
            _emit_json(args, {"n": args.n, "convention": args.convention,
                              "allow_one": args.allow_one, "count": c})
        else:
            _emit(args, f"n,convention,count\n{args.n},{args.convention},{c}")
        return 0
    if act == "report":
        _emit_json(args, goldbach.representation_report(args.n))
        return 0
    if act == "euler":
        bad = goldbach.euler_variant_check(args.limit)
        if args.format == "json":
            _emit_json(args, {"limit": args.limit, "violations": bad})
        else:
            _emit(args, "\n".join(["violation"] + [str(v) for v in bad]))
        return 0 if not bad else 1
    if act == "three":
        t = goldbach.three_primes(args.n)
        if args.format == "json":
            _emit_json(args, {"n": args.n, "parts": list(t)})
        else:
            _emit(args, f"p1,p2,p3\n{t[0]},{t[1]},{t[2]}")
        return 0
    if act == "exceptional":
        res = goldbach.exceptional_count(args.x)
        if args.format == "json":
            _emit_json(args, res._asdict())
        else:
            _emit(args, f"count,ratio\n{res.count},{res.ratio}")
        return 0 if res.count == 0 else 1
    # chen
    _emit_json(args, goldbach.chen_comparison(args.x, args.sample_n))
    return 0


# ---------------------------------------------------------------------------
# report

def _cmd_report(args) -> int:
    cfg = _cfg(args)
    doc = reports.build_comparison_document(args.limit, cfg=cfg)
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (beats PRIMELAB_THREADS)")
    common.add_argument("--segment-bytes", type=_int_arg, default=None)
    common.add_argument("--config", default=None,
                        help="JSON config file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to a file")
    # only the resumable jobs take a checkpoint file
    resumable = argparse.ArgumentParser(add_help=False)
    resumable.add_argument("--checkpoint", default=None,
                           help="resumable checkpoint file path")

    p = argparse.ArgumentParser(prog="primelab",
                                description="prime constellation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sieve", parents=[common], help="basic prime tooling")
    ss = ps.add_subparsers(dest="action", required=True)
    c = ss.add_parser("count", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c = ss.add_parser("primes", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c = ss.add_parser("factor", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    c = ss.add_parser("isprime", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    ps.set_defaults(func=_cmd_sieve)

    pc = sub.add_parser("census", parents=[common],
                        help="constellation counting")
    sc = pc.add_subparsers(dest="shape", required=True)
    c = sc.add_parser("pairs", parents=[common, resumable])
    c.add_argument("--gap", type=_int_arg, default=2)
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c.add_argument("--stride", type=_int_arg, default=1 << 28)
    c = sc.add_parser("pattern", parents=[common, resumable])
    c.add_argument("--offsets", type=_offsets_arg, required=True)
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c.add_argument("--stride", type=_int_arg, default=1 << 28)
    c = sc.add_parser("twin-almost", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c = sc.add_parser("square1", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--mode", choices=("prime", "omega_le_2", "bigomega_le_2"),
                   default="prime")
    c.add_argument("--checkpoints", type=_int_list, default=None)
    pc.set_defaults(func=_cmd_census)

    pg = sub.add_parser("gaps", parents=[common], help="prime gap statistics")
    sg = pg.add_subparsers(dest="action", required=True)
    c = sg.add_parser("scan", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--kind", choices=("firsts", "records"), default="firsts")
    c = sg.add_parser("first", parents=[common])
    c.add_argument("--gap", type=_int_arg, required=True)
    c.add_argument("--limit", type=_int_arg, required=True)
    c = sg.add_parser("missing", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--max-gap", type=_int_arg, required=True)
    c = sg.add_parser("extremes", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c = sg.add_parser("interval", parents=[common])
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--theta", type=Fraction, required=True)
    c = sg.add_parser("between-squares", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    c = sg.add_parser("short-interval", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    c.add_argument("--exponent", type=float, default=1.5)
    c = sg.add_parser("hunt", parents=[common, resumable])
    c.add_argument("--gap", type=_int_arg, required=True)
    c.add_argument("--stop", type=_int_arg, required=True)
    c.add_argument("--start", type=_int_arg, default=2)
    c.add_argument("--stride", type=_int_arg, default=1 << 30)
    pg.set_defaults(func=_cmd_gaps)

    pk = sub.add_parser("constants", parents=[common],
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
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--offsets", type=_offsets_arg, default=None)
    c = sk.add_parser("bounds", parents=[common])
    c.add_argument("--x", type=_int_arg, required=True)
    c = sk.add_parser("report", parents=[common])
    c.add_argument("--digits", type=int, default=10)
    c.add_argument("--quad-digits", type=int, default=10)
    pk.set_defaults(func=_cmd_constants)

    pb = sub.add_parser("brun", parents=[common],
                        help="twin reciprocal sums")
    sb = pb.add_subparsers(dest="action", required=True)
    c = sb.add_parser("partial", parents=[common, resumable])
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c.add_argument("--stride", type=_int_arg, default=1 << 28)
    c = sb.add_parser("table", parents=[common, resumable])
    c.add_argument("--limit", type=_int_arg, required=True)
    c.add_argument("--checkpoints", type=_int_list, default=None)
    c.add_argument("--stride", type=_int_arg, default=1 << 28)
    c = sb.add_parser("extrapolate", parents=[common])
    c.add_argument("--sum", required=True)
    c.add_argument("--limit", type=_int_arg, required=True)
    pb.set_defaults(func=_cmd_brun)

    pgb = sub.add_parser("goldbach", parents=[common],
                         help="two-prime decompositions")
    sgb = pgb.add_subparsers(dest="action", required=True)
    c = sgb.add_parser("verify", parents=[common])
    c.add_argument("--from", dest="lo", type=_int_arg, required=True)
    c.add_argument("--to", dest="hi", type=_int_arg, required=True)
    c = sgb.add_parser("count", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    c.add_argument("--convention", choices=("unordered", "ordered"),
                   default="unordered")
    c.add_argument("--allow-one", action="store_true")
    c = sgb.add_parser("report", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    c = sgb.add_parser("euler", parents=[common])
    c.add_argument("--limit", type=_int_arg, required=True)
    c = sgb.add_parser("three", parents=[common])
    c.add_argument("--n", type=_int_arg, required=True)
    c = sgb.add_parser("exceptional", parents=[common])
    c.add_argument("--x", type=_int_arg, required=True)
    c = sgb.add_parser("chen", parents=[common])
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--sample-n", type=_int_arg, default=None)
    pgb.set_defaults(func=_cmd_goldbach)

    pr = sub.add_parser("report", parents=[common],
                        help="comparison documents")
    sr = pr.add_subparsers(dest="action", required=True)
    c = sr.add_parser("paper-tables", parents=[common])
    c.add_argument("--limit", type=_int_arg, default=10**8)
    pr.set_defaults(func=_cmd_report)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
