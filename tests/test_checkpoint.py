import json
import os

import pytest

import primelab.checkpoint as checkpoint_mod
from primelab.checkpoint import (
    Checkpoint,
    read_latest,
    resume,
    write_checkpoint,
)
from primelab.errors import CheckpointError


def test_round_trip(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    cp = Checkpoint("job@100", 40, {"total": "17", "sum": "1.25"})
    write_checkpoint(path, cp)
    got = read_latest(path)
    assert got == cp
    assert got.payload["sum"] == "1.25"  # strings, not floats


def test_file_holds_the_latest_state_only(tmp_path):
    path = tmp_path / "cp.jsonl"
    for done in (10, 20, 30):
        write_checkpoint(str(path), Checkpoint("job@100", done, {}))
    assert path.read_text() == Checkpoint("job@100", 30, {}).to_json() + "\n"
    assert read_latest(str(path)).range_done == 30


def test_write_size_does_not_grow_with_the_run(tmp_path):
    # O(1) writes without a clock: write #2000 replaces the same one line
    # that write #10 left, byte for byte as long
    path = tmp_path / "cp.jsonl"
    sizes = {}
    for n in range(1, 2001):
        write_checkpoint(str(path), Checkpoint(
            "pattern(0,2)@100000000000000", 10**12 + n,
            {"totals": [str(10**6 + n) for _ in range(7)]}))
        sizes[n] = path.stat().st_size
    assert len(path.read_text().splitlines()) == 1
    assert sizes[2000] == sizes[10]
    assert read_latest(str(path)).range_done == 10**12 + 2000


def test_earlier_release_file_resumes_from_its_last_line(tmp_path):
    # earlier releases appended one line per checkpoint, newest last
    path = tmp_path / "cp.jsonl"
    path.write_text("".join(Checkpoint("job@100", d, {"n": str(d)}).to_json()
                            + "\n" for d in (10, 20, 30)))
    got = resume(str(path), "job@100", lambda payload, done: payload["n"])
    assert got == ("30", 30)
    with pytest.raises(CheckpointError):  # monotone against the last line
        write_checkpoint(str(path), Checkpoint("job@100", 25, {"n": "25"}))
    write_checkpoint(str(path), Checkpoint("job@100", 40, {"n": "40"}))
    assert path.read_text() == Checkpoint("job@100", 40,
                                          {"n": "40"}).to_json() + "\n"


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_write_leaves_the_previous_file(failing, tmp_path,
                                               monkeypatch):
    path = tmp_path / "cp.jsonl"
    write_checkpoint(str(path), Checkpoint("job@100", 10, {"n": "10"}))
    before = path.read_bytes()

    def boom(*args):
        raise OSError(f"injected {failing} failure")

    monkeypatch.setattr(checkpoint_mod.os, failing, boom)
    with pytest.raises(OSError, match="injected"):
        write_checkpoint(str(path), Checkpoint("job@100", 20, {"n": "20"}))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cp.jsonl"]  # no .ckpt-* temp file


def _no_umask(*args):
    raise AssertionError("write_checkpoint set the process-wide umask")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640),
                                         (0o077, 0o600)], ids=oct)
def test_new_file_takes_the_umask_default(umask, mode, tmp_path,
                                          monkeypatch):
    path = tmp_path / "cp.jsonl"
    old = os.umask(umask)
    try:
        with monkeypatch.context() as mp:
            mp.setattr(checkpoint_mod.os, "umask", _no_umask)
            write_checkpoint(str(path), Checkpoint("job@100", 10, {}))
        assert os.umask(umask) == umask  # the write left the umask alone
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("mode", [0o640, 0o604, 0o600, 0o644], ids=oct)
def test_rewrite_keeps_the_file_mode(mode, tmp_path, monkeypatch):
    for umask in (0o022, 0o077):
        path = tmp_path / f"cp-{umask:o}.jsonl"
        old = os.umask(umask)
        try:
            write_checkpoint(str(path), Checkpoint("job@100", 10, {}))
            path.chmod(mode)
            with monkeypatch.context() as mp:
                mp.setattr(checkpoint_mod.os, "umask", _no_umask)
                write_checkpoint(str(path), Checkpoint("job@100", 20, {}))
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode, oct(umask)
        assert read_latest(str(path)).range_done == 20


def test_monotone_progress_enforced(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    write_checkpoint(path, Checkpoint("job@100", 50, {}))
    with pytest.raises(CheckpointError):
        write_checkpoint(path, Checkpoint("job@100", 40, {}))


def test_task_mismatch(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    write_checkpoint(path, Checkpoint("job@100", 50, {}))
    with pytest.raises(CheckpointError):
        write_checkpoint(path, Checkpoint("other@100", 60, {}))


def test_missing_file_is_fresh_start(tmp_path):
    assert read_latest(str(tmp_path / "absent.jsonl")) is None
    assert resume(str(tmp_path / "absent.jsonl"), "job@100",
                  lambda payload, done: payload) is None


def test_corrupt_line_raises_and_preserves(tmp_path):
    path = tmp_path / "cp.jsonl"
    path.write_text('{"version": 1, "task_id": "j", "range_done": 5, '
                    '"payload": {}}\nnot json\n')
    with pytest.raises(CheckpointError):
        read_latest(str(path))
    with pytest.raises(CheckpointError):
        write_checkpoint(str(path), Checkpoint("j", 6, {}))
    # the file was not rewritten or truncated by the failed read or write
    assert "not json" in path.read_text()


def test_version_mismatch(tmp_path):
    path = tmp_path / "cp.jsonl"
    line = json.dumps({"version": 99, "task_id": "j", "range_done": 5,
                       "payload": {}})
    path.write_text(line + "\n")
    with pytest.raises(CheckpointError):
        read_latest(str(path))


def test_malformed_fields(tmp_path):
    path = tmp_path / "cp.jsonl"
    path.write_text(json.dumps({"version": 1, "task_id": "j"}) + "\n")
    with pytest.raises(CheckpointError):
        read_latest(str(path))
