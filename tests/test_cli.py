import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primelab.cli import int_arg, main
from primelab.config import Config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_star_import_resolves_every_export():
    import primelab
    names = {}
    exec("from primelab import *", names)  # a dangling export raises here
    assert len(set(primelab.__all__)) == len(primelab.__all__)
    for name in primelab.__all__:
        assert names[name] is getattr(primelab, name), name


def test_census_pairs_table_ending(capsys):
    code, out = run(capsys, "census", "pairs", "--gap", "2",
                    "--limit", "1e6")
    assert code == 0
    assert out.splitlines()[0] == "limit,count"
    assert out.splitlines()[-1] == "1000000,8169"


def test_brun_partial_low_mark_output(capsys):
    # the scan stops at the mark, and the row is the one it always was
    code, out = run(capsys, "brun", "partial", "--limit", "1e8",
                    "--checkpoints", "1e3")
    assert code == 0
    assert out == "limit,sum,pair_count\n1000,1.5180324635595909886,35\n"


def test_constants_twin_digits(capsys):
    code, out = run(capsys, "constants", "twin", "--digits", "10")
    assert code == 0
    assert out.strip() == "0.6601618158"


def test_constants_twin_json(capsys):
    code, out = run(capsys, "constants", "twin", "--digits", "10",
                    "--format", "json")
    obj = json.loads(out)
    assert obj["value"] == "0.6601618158"
    assert obj["digits"] == 10


def test_constants_digits_domain(capsys):
    # out-of-range digits are a usage error (exit 2), not an internal one
    for argv in (("prime-zeta", "--s", "2", "--digits", "400"),
                 ("zeta", "--s", "3", "--digits", "101"),
                 ("prime-zeta", "--s", "3", "--character", "mod4",
                  "--digits", "0")):
        code, out = run(capsys, "constants", *argv)
        assert code == 2, argv
        assert out == ""
    # certifies now; it used to be a mathematical violation (exit 1)
    code, out = run(capsys, "constants", "pattern", "--offsets", "0,2,6,8",
                    "--digits", "30")
    assert code == 0
    assert out.strip() == "4.151180863237415757165285561960"


def test_goldbach_verify_clean(capsys):
    code, out = run(capsys, "goldbach", "verify", "--from", "4",
                    "--to", "1e5")
    assert code == 0
    assert out.splitlines()[-1] == "4,100000,"


def test_goldbach_count(capsys):
    code, out = run(capsys, "goldbach", "count", "--n", "1e4",
                    "--convention", "unordered")
    assert code == 0
    assert out.splitlines()[-1] == "10000,unordered,127"


def test_sieve_count(capsys):
    code, out = run(capsys, "sieve", "count", "--limit", "1e6")
    assert code == 0
    assert out.splitlines()[-1] == "1000000,78498"


def test_gaps_first(capsys):
    code, out = run(capsys, "gaps", "first", "--gap", "100",
                    "--limit", "1e6")
    assert code == 0
    assert out.splitlines()[-1] == "100,396733"


def test_brun_partial_pair_counts(capsys):
    code, out = run(capsys, "brun", "partial", "--limit", "1e5",
                    "--checkpoints", "1e3,1e4,1e5")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "limit,sum,pair_count"
    assert [l.split(",")[0] for l in lines[1:]] == ["1000", "10000", "100000"]
    assert [l.split(",")[2] for l in lines[1:]] == ["35", "205", "1224"]


def test_brun_extrapolate_rejects_bad_sum(capsys):
    for bad in ("nan", "inf", "-1", "-0.5"):
        assert main(["brun", "extrapolate", f"--sum={bad}",
                     "--limit", "1e6"]) == 2
    assert capsys.readouterr().out == ""


def test_brun_extrapolate_matches_table(capsys):
    # the printed raw sum extrapolates to the table's extrapolated column
    code, out = run(capsys, "brun", "table", "--limit", "1e6",
                    "--checkpoints", "1e3,36333,1e5,245275,1e6")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert len(rows) == 5
    for limit, raw, ext, *_ in rows:
        code, out = run(capsys, "brun", "extrapolate", "--sum", raw,
                        "--limit", limit)
        assert (code, out) == (0, ext + "\n")


def test_report_subcommand(capsys):
    code, out = run(capsys, "report", "paper-tables", "--limit", "1e4")
    assert code == 0
    assert "| 10,000 | 205 | 205 | yes |" in out


def test_exit_code_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "pairs", "--limit", "not-a-number"])
    assert exc.value.code == 2
    # domain errors are caught, not raised
    assert main(["census", "pairs", "--gap", "3", "--limit", "100"]) == 2
    assert main(["brun", "partial", "--limit", "4"]) == 2


def test_exit_code_checkpoint_error(tmp_path, capsys):
    path = tmp_path / "cp.jsonl"
    path.write_text("garbage\n")
    code = main(["census", "pairs", "--gap", "2", "--limit", "1e5",
                 "--checkpoint", str(path)])
    assert code == 2
    assert "garbage" in path.read_text()  # file preserved


def test_checkpoint_only_where_honoured(tmp_path, capsys):
    path = tmp_path / "cp.jsonl"
    for argv in (["census", "square1", "--limit", "1e8"],
                 ["census", "twin-almost", "--limit", "1e4"],
                 ["goldbach", "verify", "--from", "4", "--to", "100"],
                 ["census", "--checkpoint", str(path), "pairs",
                  "--limit", "1e4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--checkpoint", str(path)])
        assert exc.value.code == 2
        assert not path.exists()
    assert main(["census", "pairs", "--limit", "1e4",
                 "--checkpoint", str(path)]) == 0
    assert path.exists()
    # a numeric --checkpoint is not read as a prefix of --checkpoints
    for argv in (["census", "square1", "--limit", "1e8",
                  "--checkpoint", "1e6"],
                 ["census", "twin-almost", "--limit", "1e5",
                  "--checkpoint=1e4"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "not resumable" in out.err
    # other abbreviations still work
    assert run(capsys, "census", "square1", "--lim", "1e8",
               "--checkpoints", "1e6") == (0, "limit,count\n1000000,112\n")
    assert run(capsys, "census", "twin-almost", "--lim", "1e4",
               "--checkpoints", "1e3") == (0, "limit,count\n1000,114\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["census", "pairs", "--gap", "2", "--limit", "1e5",
                 "--out", str(target)])
    assert code == 0
    assert target.read_text().endswith("100000,1224\n")
    assert capsys.readouterr().out == ""


def test_int_arg_forms(capsys):
    for text in ("100000", "1e5", "100_000"):
        code, out = run(capsys, "sieve", "count", "--limit", text)
        assert out.splitlines()[-1] == "100000,9592"


def test_int_arg_reads_exactly(capsys):
    assert int_arg("10000000000000001") == 10**16 + 1
    assert int_arg("1.0000000000000001e16") == 10**16 + 1
    assert int_arg("1e100") == 10**100
    for text in ("1.5", "1000000000.5", "inf", "nan", "1e4300"):
        with pytest.raises(argparse.ArgumentTypeError):
            int_arg(text)
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "count", "--limit", "inf"])
    assert exc.value.code == 2


def test_config_validates_at_construction(capsys):
    for kwargs in ({"threads": 0}, {"segment_bytes": 1023}):
        with pytest.raises(ValueError):
            Config(**kwargs)
    with pytest.raises(ValueError):
        dataclasses.replace(Config(), threads=0)
    code = main(["census", "pairs", "--limit", "1e4", "--threads", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: threads must be positive"]


def test_group_parsers_take_no_options(tmp_path, capsys):
    # an option before the leaf is a usage error, not silently overwritten
    out = tmp_path / "report.txt"
    for argv in (["report", "--out", str(out), "paper-tables",
                  "--limit", "1e3"],
                 ["census", "--format", "json", "pairs", "--limit", "1000"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    assert not out.exists()


def test_commands_without_run_flags_ignore_the_environment(monkeypatch,
                                                           capsys, tmp_path):
    monkeypatch.setenv("PRIMELAB_THREADS", "0")
    code, out = run(capsys, "sieve", "factor", "--n", "360")
    assert code == 0
    assert out == "prime,exponent\n2,3\n3,2\n5,1\n"
    # settings come from flags only, so a walking command ignores it too
    code, out = run(capsys, "sieve", "count", "--limit", "100")
    assert code == 0 and out == "limit,count\n100,25\n"
    # and no command takes a config file
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threads": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["census", "pairs", "--limit", "1e3", "--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_no_module_reads_the_environment():
    # settings come from flags and Config(...) arguments only
    root = Path(__file__).resolve().parent.parent
    banned = {"environ", "environb", "getenv", "getenvb"}
    paths = [*(root / "src" / "primelab").glob("*.py"),
             *(root / "scripts").glob("*.py")]
    assert len(paths) > 10
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            assert name not in banned, f"{path.name}:{node.lineno}"


def _callers(name: str) -> set[str]:
    """The functions of src/primelab that call anything named `name`, as
    module.function or module.Class.method; a nested def counts as the
    function around it."""
    root = Path(__file__).resolve().parent.parent / "src" / "primelab"
    found = set()
    for path in root.glob("*.py"):
        for top in ast.parse(path.read_text(), str(path)).body:
            scopes = ([(f"{top.name}.{getattr(item, 'name', '')}", item)
                       for item in top.body]
                      if isinstance(top, ast.ClassDef)
                      else [(getattr(top, "name", ""), top)])
            for scope, node in scopes:
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and name in (
                            getattr(call.func, "attr", None),
                            getattr(call.func, "id", None)):
                        found.add(f"{path.stem}.{scope}")
    return found


def test_segment_walks_go_through_walk():
    # one tiling of a range into sieved segments, and one crossing routine
    assert _callers("segments") == {
        "scan.scan", "sieve._prime_arrays", "sieve.small_primes",
        "sieve.odd_prime_words"}
    assert _callers("fill_segment") == {"sieve.Walk.segments"}


def test_threads_flag_reaches_the_scan(monkeypatch, capsys):
    import primelab.scan as scan_mod
    pools = []

    class Counted(scan_mod.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(scan_mod, "ThreadPoolExecutor", Counted)
    code, out = run(capsys, "census", "pairs", "--limit", "1e5",
                    "--threads", "2", "--segment-bytes", "1024",
                    "--stride", "8192")
    assert code == 0 and out.splitlines()[-1] == "100000,1224"
    assert len(pools) == 1 and pools[0]._max_workers == 2
    assert pools[0]._shutdown


def test_resume_byte_identical_via_cli(tmp_path, capsys, monkeypatch):
    import primelab.scan as scan_mod
    ck = str(tmp_path / "ck.jsonl")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"

    calls = {"n": 0}
    orig = scan_mod.write_checkpoint

    def bomb(*args, **kwargs):
        calls["n"] += 1
        orig(*args, **kwargs)
        if calls["n"] == 1:
            raise KeyboardInterrupt

    monkeypatch.setattr(scan_mod, "write_checkpoint", bomb)
    with pytest.raises(KeyboardInterrupt):
        main(["census", "pairs", "--gap", "2", "--limit", "3e6",
              "--segment-bytes", "65536", "--stride", "1048576",
              "--checkpoint", ck])
    monkeypatch.setattr(scan_mod, "write_checkpoint", orig)

    from primelab.checkpoint import read_latest
    assert read_latest(ck).range_done < 3 * 10**6  # genuinely mid-run

    assert main(["census", "pairs", "--gap", "2", "--limit", "3e6",
                 "--segment-bytes", "65536", "--stride", "1048576",
                 "--checkpoint", ck, "--out", str(a)]) == 0
    assert main(["census", "pairs", "--gap", "2", "--limit", "3e6",
                 "--segment-bytes", "65536", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _cli_process(*argv: str, timeout: float) -> subprocess.CompletedProcess:
    """The CLI in a child process, for inputs that could hang it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "primelab", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def test_gaps_interval_decimal_theta_answers():
    out = _cli_process("gaps", "interval", "--x", "1000", "--theta", "0.55",
                       timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1].startswith("7,")


def test_non_finite_inputs_exit_2(capsys):
    out = _cli_process("constants", "li2", "--x", "inf", timeout=20)
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert out.stderr.startswith("error: x must be finite")
    for n, e in (("10", "inf"), ("10", "400")):  # n**400 overflows a float
        code = main(["gaps", "short-interval", "--n", n, "--exponent", e])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [
    *(["predict", "--quantity", q]
      for q in ("pi2k", "l2", "pattern", "goldbach_r", "qn")),
    ["bounds"],
])
def test_x_past_the_float_range_exits_2(command, capsys):
    for x in ("2e308", "1e400"):
        code = main(["constants", *command, "--x", x])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_goldbach_r_past_2_64_names_x_and_the_domain(capsys):
    for x in ("1e308", str(2**64)):
        code = main(["constants", "predict", "--quantity", "goldbach_r",
                     "--x", x])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: goldbach_r factors x, so it needs "
                                f"x < 2**64; x = {int(float(x)):.6g}\n")
    code, out = run(capsys, "constants", "predict", "--quantity",
                    "goldbach_r", "--x", str(2**64 - 2))
    assert code == 0 and out.startswith("quantity,x,value\n")


def test_top_of_the_float_range(capsys):
    code, out = run(capsys, "constants", "predict", "--quantity", "l2",
                    "--x", "1e308")
    assert code == 0
    assert out.splitlines()[1].endswith(",2.6325450829902103e+302")
    code, out = run(capsys, "constants", "predict", "--quantity", "pattern",
                    "--offsets", "0,2,6,8", "--x", "1e308")
    assert code == 0
    assert out.splitlines()[1].endswith(",1.6409903789536654e+297")
    # 7200 * x, in the first bound, leaves the float range
    code = main(["constants", "bounds", "--x", "1e308"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: x is too large: a bound overflows a float\n"


def test_isprime_past_64_bits(capsys):
    # even n are settled without prp_test, which takes odd n only
    for n, want in ((2**64, "False,deterministic"),
                    (2**64 + 2, "False,deterministic"),
                    (2**64 + 13, "True,probable"),
                    (2**64 + 15, "False,probable")):
        code, out = run(capsys, "sieve", "isprime", "--n", str(n))
        assert code == 0 and out.splitlines()[1] == f"{n},{want}"


def test_window_outside_int64_exits_2(capsys):
    code = main(["gaps", "interval", "--x", str(2**63), "--theta", "1/2"])
    assert code == 2
    assert "int64" in capsys.readouterr().err


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    import primelab.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_goldbach", crash)
    code = main(["goldbach", "verify", "--from", "4", "--to", "10"])
    assert code == 3  # not 1, which means a violation
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("exc,code,prefix", [
    (None, 0, ""),
    ("MathViolationError", 1, "mathematical violation: x"),
    ("CheckpointError", 2, "checkpoint error: x"),
    ("ValueError", 2, "error: x"),
    ("FileNotFoundError", 2, "error: x"),
    ("ResourceLimitError", 2, "resource limit: x (progress: None)"),
    ("KeyError", 3, "internal error: KeyError: 'x'"),
])
def test_exit_status_ladder(exc, code, prefix, capsys):
    import builtins

    from primelab import errors
    from primelab.cli import exit_status

    def run():
        if exc is None:
            return 0
        raise (getattr(errors, exc, None) or getattr(builtins, exc))("x")

    assert exit_status(run) == code
    assert capsys.readouterr().err == (prefix + "\n" if prefix else "")
