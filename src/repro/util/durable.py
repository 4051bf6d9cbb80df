"""Crash-safe file primitives: fsync'd appends and atomic replace.

POSIX gives no durability for free: ``rename`` is atomic with respect to
*other processes*, but after a power loss (or a SIGKILL racing the page
cache) a renamed file can still read back empty or truncated unless the
data was fsync'd before the rename and the directory entry fsync'd after
it.  Every durable write in the reproduction — the dataset JSONL, the run
manifest, the checkpoint journal and snapshots — goes through the helpers
here so the sequence is written once and audited once.

The helpers count fsyncs on the module-level :data:`FSYNC_COUNTS` so the
perf harness (``make profile``) can report exactly what durability costs,
and carry the ``durable.*`` failpoints so the storage-fault sweep can
break any step of the sequence — short write, failed fsync, torn rename —
at a deterministic point.  A kill between temp-write and rename leaves a
``*.tmp`` orphan; :func:`sweep_stale_tmp` is the resume-side cleanup.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, IO, List

import numpy as np

from repro import failpoints

#: The byte layout of an id array at rest: little-endian int32, 4 bytes
#: per id, in the store's BLOB columns and, base64-encoded, in the
#: checkpoint journal.
ID_BLOB = np.dtype("<i4")

#: Process-wide fsync accounting, keyed by call-site tag (read by the perf
#: harness; purely informational, never branched on).
FSYNC_COUNTS: Dict[str, int] = {}


def fsync_handle(handle: IO, tag: str = "file") -> None:
    """Flush ``handle`` and fsync its descriptor to stable storage."""
    handle.flush()
    failpoints.hit("durable.fsync.file")
    os.fsync(handle.fileno())
    FSYNC_COUNTS[tag] = FSYNC_COUNTS.get(tag, 0) + 1


def fsync_dir(directory: Path, tag: str = "dir") -> None:
    """Fsync a directory so a just-renamed entry survives a crash."""
    failpoints.hit("durable.fsync.dir")
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    FSYNC_COUNTS[tag] = FSYNC_COUNTS.get(tag, 0) + 1


def sweep_stale_tmp(directory: Path, pattern: str = "*.tmp") -> List[Path]:
    """Remove orphaned atomic-write temp files left by a crash.

    A kill between temp-write and rename abandons the sibling ``.tmp``
    file; the committed file (if any) is still the last complete version,
    so the orphan is garbage by construction.  Resume paths call this
    before trusting a directory.  Returns the paths removed.
    """
    removed: List[Path] = []
    directory = Path(directory)
    if not directory.is_dir():
        return removed
    for tmp_path in sorted(directory.glob(pattern)):
        tmp_path.unlink(missing_ok=True)
        removed.append(tmp_path)
    return removed


def atomic_write_text(path: Path, text: str, tag: str = "atomic") -> Path:
    """Durably replace ``path`` with ``text``.

    Writes to a sibling temp file, fsyncs the data, renames over ``path``,
    then fsyncs the directory — the full crash-safe sequence.  Readers see
    either the old complete file or the new complete file, never a mix,
    and the new file survives a crash immediately after return.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with tmp_path.open("w", encoding="utf-8") as handle:
            failpoints.hit(
                "durable.write.data",
                torn=lambda: (handle.write(text[: len(text) // 2]), handle.flush()),
            )
            handle.write(text)
            fsync_handle(handle, tag=tag)
        failpoints.hit("durable.rename", torn=lambda: None)
        tmp_path.replace(path)
        fsync_dir(path.parent, tag=tag)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return path


def atomic_write_json(path: Path, obj, tag: str = "atomic") -> Path:
    """Durably replace ``path`` with ``obj`` as sorted-key JSON."""
    return atomic_write_text(
        path, json.dumps(obj, indent=2, sort_keys=True) + "\n", tag=tag
    )
