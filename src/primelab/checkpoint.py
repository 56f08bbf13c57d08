"""Resumable-task checkpoints.

Files are line-delimited JSON, one object per checkpoint, newest last.
All numeric payload values are decimal strings so that integers of any
size round-trip losslessly and files stay hand-inspectable.  Writes replace
the whole file atomically (temp file + rename); a crash mid-write leaves
the previous state intact.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

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


def read_history(path: str) -> list[Checkpoint]:
    """All checkpoints in the file, oldest first; [] if the file is absent."""
    if not os.path.exists(path):
        return []
    history = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                history.append(_parse_line(line))
    return history


def read_latest(path: str) -> Checkpoint | None:
    history = read_history(path)
    return history[-1] if history else None


def write_checkpoint(path: str, cp: Checkpoint) -> None:
    """Append a checkpoint, enforcing monotone progress for the same task."""
    history = read_history(path)
    if history:
        last = history[-1]
        if last.task_id != cp.task_id:
            raise CheckpointError(
                f"checkpoint file belongs to task {last.task_id!r}, "
                f"not {cp.task_id!r}")
        if cp.range_done < last.range_done:
            raise CheckpointError("range_done must not decrease")
    lines = [c.to_json() for c in history] + [cp.to_json()]
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
