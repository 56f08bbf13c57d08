"""Golden output of every CLI leaf subcommand and of the two table scripts.

`data/cli_golden.json` holds stdout and exit status for each case below,
in both `--format csv` and `--format json`, plus one `--out FILE` case and
the stdout of `scripts/twin_census_extended.py` and `scripts/brun_longrun.py`
(their stderr carries a timing line and is not compared). Any change to
the bytes a user gets shows up here. Each case is also run once more
with a run flag: the leaves in WALKING must give the same bytes on 1 KiB
segments, and every other leaf must refuse `--threads`.

Re-record (only when an output change is intended, and say why):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primelab.cli import build_parser, main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "data" / "cli_golden.json"

# one entry per leaf subcommand (gaps scan once per --kind), at toy sizes
CASES = [
    "sieve count --limit 1e4",
    "sieve primes --limit 100",
    "sieve factor --n 360",
    "sieve isprime --n 97",
    "census pairs --limit 1e5 --checkpoints 1e3,1e4,1e5",
    "census pattern --offsets 0,2,6 --limit 1e5 --checkpoints 1e4,1e5",
    "census twin-almost --limit 1e4 --checkpoints 1e3,1e4",
    "census square1 --limit 1e6 --mode omega_le_2 --checkpoints 1e4,1e6",
    "gaps scan --limit 1e4 --kind firsts",
    "gaps scan --limit 1e4 --kind records",
    "gaps first --gap 100 --limit 1e4",
    "gaps missing --limit 1e4 --max-gap 40",
    "gaps extremes --limit 1e4",
    "gaps interval --x 1000 --theta 0.55",
    "gaps between-squares --n 100",
    "gaps short-interval --n 100",
    "gaps hunt --gap 52 --stop 1e5",
    "constants twin --digits 10",
    "constants pattern --offsets 0,2,6 --digits 10",
    "constants quad --digits 10",
    "constants zeta --s 3",
    "constants prime-zeta --s 2 --character mod4",
    "constants li2 --x 1e6",
    "constants predict --quantity pi2k --x 1e6 --k 1",
    "constants bounds --x 1e6",
    "constants report",
    "constants twin --digits 50",
    "constants pattern --offsets 0,2,6 --digits 40",
    "constants pattern --offsets 0,2,6,8 --digits 20",
    "constants quad --digits 15",
    "constants zeta --s 5 --digits 40",
    "constants prime-zeta --s 3 --character mod4 --digits 30",
    "brun partial --limit 1e5 --checkpoints 1e3,1e4,1e5",
    "brun table --limit 1e5",
    "brun extrapolate --sum 1.8 --limit 1e8",
    "goldbach verify --from 4 --to 1e4",
    "goldbach count --n 1e4",
    "goldbach report --n 1000",
    "goldbach euler --limit 1000",
    "goldbach three --n 1001",
    "goldbach exceptional --x 1e4",
    "goldbach chen --x 1e4",
    "report paper-tables --limit 1e4",
    "report paper-tables --limit 1100000",
]
CLI_KEYS = [f"{c} --format {fmt}" for c in CASES for fmt in ("csv", "json")]
OUT_KEY = "census pairs --limit 1e5 --checkpoints 1e4,1e5 --out FILE"
SCRIPT_KEYS = ["scripts/twin_census_extended.py --limit 1e5",
               "scripts/brun_longrun.py --limit 1e5"]

def run_cli(key: str, out_dir: Path) -> dict:
    """Run one case in process; return its status, stdout and --out file."""
    out_file = out_dir / "out.txt"
    argv = [out_file.as_posix() if a == "FILE" else a for a in key.split()]
    from io import StringIO
    saved, sys.stdout = sys.stdout, StringIO()
    try:
        status = main(argv)
        stdout = sys.stdout.getvalue()
    finally:
        sys.stdout = saved
    got = {"status": status, "stdout": stdout}
    if "FILE" in key.split():
        got["file"] = out_file.read_text(encoding="utf-8")
    return got


def run_script(key: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *key.split()], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return {"status": proc.returncode, "stdout": proc.stdout}


def run_case(key: str, out_dir: Path) -> dict:
    if key.startswith("scripts/"):
        return run_script(key)
    return run_cli(key, out_dir)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CLI_KEYS + [OUT_KEY] + SCRIPT_KEYS)


@pytest.mark.parametrize("key", CLI_KEYS + [OUT_KEY] + SCRIPT_KEYS)
def test_output_byte_identical(key, golden, tmp_path):
    assert run_case(key, tmp_path) == golden[key]


# the leaves that walk segments, the only ones taking the run flags
WALKING = {"sieve count", "sieve primes", "census pairs", "census pattern",
           "gaps scan", "gaps first", "gaps missing", "gaps extremes",
           "gaps hunt", "brun partial", "brun table", "report paper-tables"}


def _leaf(case: str) -> str:
    return " ".join(case.split()[:2])


def _subcommands(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_leaf_is_classified_and_groups_take_no_options():
    groups = _subcommands(build_parser())
    leaves = {f"{g} {l}" for g, p in groups.items() for l in _subcommands(p)}
    assert leaves == {_leaf(c) for c in CASES}
    assert WALKING <= leaves
    for name, group in groups.items():
        opts = [a.option_strings for a in group._actions if a.option_strings]
        assert opts == [["-h", "--help"]], name


@pytest.mark.parametrize("case", CASES)
def test_run_flags_only_on_walking_leaves(case, golden, tmp_path, capsys):
    if _leaf(case) in WALKING:
        # results do not depend on the segment size
        got = run_cli(f"{case} --segment-bytes 1024 --format csv", tmp_path)
        assert got == golden[f"{case} --format csv"]
        return
    with pytest.raises(SystemExit) as exc:
        main([*case.split(), "--threads", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _record() -> None:
    import tempfile
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in CLI_KEYS + [OUT_KEY] + SCRIPT_KEYS:
            doc[key] = run_case(key, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
