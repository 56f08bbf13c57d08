"""Resumable-task checkpoints.

A checkpoint file holds one line of JSON: the task's latest state.  All
numeric payload values are decimal strings so that integers of any size
round-trip losslessly and files stay hand-inspectable.  Each write goes
to a temp file in the same directory, which is fsynced and renamed over
the file, and then the directory is fsynced: a crash at any instant
leaves the previous state or the new one, and a write costs the same
however long the run.  The temp file takes the mode of the file it
replaces, or 0o666 less the umask for a new file, before the rename.
Files from earlier releases hold one line per checkpoint, newest last;
they resume from their last line, and their next write leaves one line.
"""
from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, field
from typing import Callable

from .errors import CheckpointError

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    task_id: str
    range_done: int
    payload: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "task_id": self.task_id,
            "range_done": self.range_done,
            "payload": self.payload,
        }, sort_keys=True)


def _parse_line(line: str) -> Checkpoint:
    try:
        raw = json.loads(line)
        cp = Checkpoint(
            task_id=raw["task_id"],
            range_done=int(raw["range_done"]),
            payload=raw.get("payload", {}),
            version=int(raw["version"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint line: {exc}") from exc
    if cp.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {cp.version} "
            f"(this build reads version {CHECKPOINT_VERSION})")
    return cp


def read_latest(path: str) -> Checkpoint | None:
    """The file's last checkpoint; None if the file is absent or empty."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    except FileNotFoundError:
        return None
    return _parse_line(lines[-1]) if lines else None


def resume(path: str, task_id: str,
           load: Callable[[dict, int], object]) -> tuple | None:
    """(load(payload, range_done), range_done) of the file's checkpoint,
    which must be task_id's; None if there is none.  A payload that load
    cannot read (KeyError, TypeError, ValueError) is a CheckpointError."""
    cp = read_latest(path)
    if cp is None:
        return None
    if cp.task_id != task_id:
        raise CheckpointError(
            f"checkpoint file belongs to task {cp.task_id!r}, not {task_id!r}")
    try:
        return load(cp.payload, cp.range_done), cp.range_done
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed payload: {exc}") from exc


def write_checkpoint(path: str, cp: Checkpoint) -> None:
    """Replace the file's state by cp, enforcing monotone progress for the
    same task."""
    last = resume(path, cp.task_id, lambda payload, done: done)
    if last is not None and cp.range_done < last[1]:
        raise CheckpointError("range_done must not decrease")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    # 0o666 less the umask, which the kernel applies: reading the umask
    # would mean setting it, for every thread of the process
    tmp = os.path.join(directory, f".ckpt-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(cp.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
