"""The scripts/ entry points: argument parsing and exit status."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEVENTEEN_DIGITS = "10000000000000001"  # 10**16 + 1, not a float


def run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_scripts_keep_seventeen_digits(tmp_path):
    cp = tmp_path / "form.jsonl"
    out = run_script("scripts/twin_record_search.py", "--exponent", "1",
                     "--k-lo", SEVENTEEN_DIGITS, "--k-hi", SEVENTEEN_DIGITS,
                     "--checkpoint", str(cp))
    assert out.returncode == 0, out.stderr
    last = json.loads(cp.read_text().splitlines()[-1])
    assert last["range_done"] == 10**16 + 1
    assert last["task_id"].endswith("@" + SEVENTEEN_DIGITS)


@pytest.mark.parametrize("argv", [
    ["scripts/twin_census_extended.py", "--limit", "1.5"],
    ["scripts/brun_longrun.py", "--limit", "1.5"],
    ["scripts/gap_hunt.py", "--gap", "2", "--stop", "1.5"],
    ["scripts/twin_record_search.py", "--k-hi", "1.5"],
])
def test_scripts_reject_fractions(argv):
    out = run_script(*argv)
    assert out.returncode == 2
    assert "not an integer: '1.5'" in out.stderr


def test_gap_hunt_not_found_is_not_a_violation(capsys):
    out = run_script("scripts/gap_hunt.py", "--gap", "200", "--stop", "1e4")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("gap 200: no occurrence up to 10000 ")
    # the CLI agrees
    assert main(["gaps", "hunt", "--gap", "200", "--stop", "1e4"]) == 0
    assert capsys.readouterr().out == "gap,first_p\n200,\n"
