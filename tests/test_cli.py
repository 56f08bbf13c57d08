import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primelab.cli import main
from primelab.config import Config, from_file, resolve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_census_pairs_table_ending(capsys):
    code, out = run(capsys, "census", "pairs", "--gap", "2",
                    "--limit", "1e6")
    assert code == 0
    assert out.splitlines()[0] == "limit,count"
    assert out.splitlines()[-1] == "1000000,8169"


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


def test_threads_flag_beats_env(monkeypatch, tmp_path):
    monkeypatch.setenv("PRIMELAB_THREADS", "7")
    cfg = resolve(Config(), threads=2)
    assert cfg.threads == 2
    cfg = resolve(Config())
    assert cfg.threads == 7
    # the environment beats the config file
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threads": 4}))
    assert resolve(from_file(str(path))).threads == 7
    assert resolve(from_file(str(path)), threads=2).threads == 2


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sieve": {"segment_bytes": 2048},
                                "threads": 3}))
    cfg = from_file(str(path))
    assert cfg.segment_bytes == 2048 and cfg.threads == 3
    with pytest.raises(FileNotFoundError):
        from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(ValueError):
        from_file(str(bad))


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


def test_gaps_interval_decimal_theta_answers():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-m", "primelab", "gaps", "interval", "--x", "1000",
         "--theta", "0.55"], capture_output=True, text=True, timeout=10,
        env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1].startswith("7,")


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
