"""The write-ahead dataset journal.

An append-only JSONL file inside the checkpoint directory.  Every durable
fact the study produces — each :class:`~repro.honeypot.monitor.MonitorSnapshot`,
each crawled :class:`~repro.honeypot.storage.LikerRecord` and
:class:`~repro.honeypot.storage.BaselineRecord`, each termination event,
and a marker at every phase boundary — is appended as one JSON line and
flushed to the OS before the study proceeds.  A SIGKILL leaves the OS
page cache intact, so it loses at most the record in flight, and that
record can only be *torn* (a partial final line), never silently
corrupting earlier ones.

Recovery (:func:`read_journal`) tolerates exactly that failure mode: a
final line that does not parse is dropped and reported; damage anywhere
else is real corruption and refuses loudly.

The fsync is a group commit: :meth:`DatasetJournal.commit` makes every
flushed record durable at once, and the checkpoint manager calls it
before each snapshot, so no snapshot or manifest entry ever counts a
record that is not on stable storage.  A power loss can therefore lose
the records written since the last barrier; resume re-derives them from
the seed and journals them again.  (If the power loss damages more than
the final line of that unsynced tail, :func:`read_journal` refuses it as
mid-file damage — a named checkpoint refusal, not a silent fork.)

On resume the journal runs in *replay-verify* mode: records the resumed
(deterministic) run re-produces are compared byte-for-byte against the
salvaged prefix instead of being re-written — the JSON text the replay
would append against the ``json.dumps`` of the salvaged record, so
``true`` never matches ``1`` — and any mismatch means the replay
diverged from the crashed run and resumption is refused rather than
silently forking history.

A record may hold NumPy int32 arrays (a liker row shares its record's
two read-only id arrays).  Each is written as its *packed text*: the
base64 (standard alphabet, no newline) of its little-endian int32 bytes,
the bytes the store keeps in its BLOB columns.  Encoding an array is
then one C call, not a Python int and a decimal string per id.  So the
journal's text is the ``json.dumps`` of the row with every array as its
packed text, and :func:`unpack_ids` turns such a field back into its
array.  Any other array is refused, never wrapped or widened.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional

import numpy as np

from repro import failpoints
from repro.ckpt.errors import CheckpointError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.durable import ID_BLOB, atomic_write_text, fsync_handle

#: Journal format identifier (bump on breaking layout changes).
JOURNAL_SCHEMA = "repro.ckpt/journal@2"


def _packed_ids(value: Any) -> str:
    """``json.dumps`` default: a 1-D int32 array as its packed text.

    Anything else is refused with :class:`TypeError`: an array of
    another dtype or shape, so an int64 id is never wrapped into 32
    bits, and every object ``json`` cannot write.
    """
    if not isinstance(value, np.ndarray):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if value.ndim != 1 or value.dtype.kind != "i" or value.dtype.itemsize != 4:
        raise TypeError(
            f"a journal array must be 1-D int32, not {value.dtype} of shape "
            f"{value.shape}"
        )
    data = np.ascontiguousarray(value, dtype=ID_BLOB)
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def unpack_ids(text: Any) -> np.ndarray:
    """The read-only int32 array a packed journal field holds.

    Raises :class:`TypeError` when ``text`` is not a string and
    :class:`ValueError` when it is not base64 of whole little-endian
    int32 values.
    """
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=ID_BLOB)


#: One journal record's JSON text: ``json.dumps(row, default=...)`` with
#: each array as its packed text, from one encoder built once.
_encode = json.JSONEncoder(default=_packed_ids).encode


@dataclass
class JournalRecovery:
    """What :func:`read_journal` salvaged from a journal file.

    ``records`` excludes the header; ``torn`` is True when a partial final
    line (the crash-mid-append signature) was dropped.
    """

    path: Path
    header: Optional[Dict] = None
    records: List[Dict] = field(default_factory=list)
    torn: bool = False

    @property
    def salvaged(self) -> int:
        """How many complete records survived."""
        return len(self.records)


def read_journal(
    path: Path, metrics: Optional[MetricsRegistry] = None
) -> JournalRecovery:
    """Read a journal, salvaging through a torn final record.

    A missing file yields an empty recovery (a run killed before its first
    append).  A final line that fails to parse is dropped, counted, and
    reported via a ``journal_salvage`` trace event; a bad line anywhere
    else, or a bad/missing header, raises :class:`CheckpointError`.
    """
    metrics = metrics if metrics is not None else NULL_METRICS
    path = Path(path)
    recovery = JournalRecovery(path=path)
    if not path.exists():
        return recovery
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            if line_number == len(lines):
                recovery.torn = True
                metrics.trace_event(
                    "journal_salvage",
                    path=str(path),
                    line=line_number,
                    salvaged=recovery.salvaged,
                    reason=error.msg,
                )
                break
            raise CheckpointError(
                f"{path}:{line_number}: corrupt journal line before the tail "
                f"({error.msg}); a torn final record is recoverable, "
                "mid-file damage is not"
            ) from error
        if recovery.header is None:
            if row.get("type") != "journal-header":
                raise CheckpointError(
                    f"{path}:1: not a checkpoint journal (missing header)"
                )
            if row.get("schema") != JOURNAL_SCHEMA:
                raise CheckpointError(
                    f"{path}: journal schema {row.get('schema')!r} is not "
                    f"{JOURNAL_SCHEMA!r}; refusing to resume across formats"
                )
            recovery.header = row
            continue
        recovery.records.append(row)
    return recovery


class DatasetJournal:
    """Append-only group-committed JSONL journal with a replay-verify resume mode."""

    def __init__(self, path: Path, metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = Path(path)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._handle: Optional[IO] = None
        self._replay: List[Dict] = []
        self._replay_index = 0
        self.records_written = 0
        #: Rows flushed to the OS but not yet fsync'd (see :meth:`commit`).
        self.pending = 0
        self.fsyncs = 0

    # -- constructors -------------------------------------------------------------

    @classmethod
    def start(
        cls,
        path: Path,
        seed: int,
        config_hash: str,
        metrics: Optional[MetricsRegistry] = None,
        shard_id: Optional[str] = None,
    ) -> "DatasetJournal":
        """Create a fresh journal, writing and fsyncing the header."""
        journal = cls(path, metrics=metrics)
        journal._handle = journal.path.open("w", encoding="utf-8")
        header = {
            "type": "journal-header",
            "schema": JOURNAL_SCHEMA,
            "seed": seed,
            "config_hash": config_hash,
        }
        if shard_id is not None:
            header["shard"] = shard_id
        journal._write_text(_encode(header))
        journal.commit()
        journal.records_written = 0  # the header is not a dataset record
        return journal

    @classmethod
    def resume(
        cls,
        path: Path,
        recovery: JournalRecovery,
        seed: int,
        config_hash: str,
        metrics: Optional[MetricsRegistry] = None,
        shard_id: Optional[str] = None,
    ) -> "DatasetJournal":
        """Reopen a salvaged journal for replay-verified continuation.

        The file is first rewritten to exactly the salvaged prefix (in
        place, truncating any torn tail), then reopened for appends.  The
        salvaged records become the replay-verify queue.
        """
        if recovery.header is not None:
            if recovery.header.get("seed") != seed:
                raise CheckpointError(
                    f"journal was written by seed {recovery.header.get('seed')}, "
                    f"this run uses seed {seed}; refusing to resume"
                )
            if recovery.header.get("config_hash") != config_hash:
                raise CheckpointError(
                    "journal was written under config fingerprint "
                    f"{recovery.header.get('config_hash')!r}, this run is "
                    f"{config_hash!r}; refusing to resume"
                )
            if recovery.header.get("shard") != shard_id:
                raise CheckpointError(
                    f"journal belongs to shard {recovery.header.get('shard')!r}, "
                    f"this run is shard {shard_id!r}; refusing to resume"
                )
            journal = cls(path, metrics=metrics)
            rows = [recovery.header] + recovery.records
            # Rewrite the salvaged prefix atomically (temp + fsync + rename)
            # so a crash *during recovery* cannot lose what the crash
            # *before* recovery did not.
            atomic_write_text(
                journal.path,
                "".join(json.dumps(row) + "\n" for row in rows),
                tag="journal",
            )
            journal._handle = journal.path.open("a", encoding="utf-8")
            journal._replay = list(recovery.records)
            journal.records_written = 0
            return journal
        # No salvageable header: the crashed run died before its header
        # landed, so this is a fresh start.
        return cls.start(path, seed, config_hash, metrics=metrics, shard_id=shard_id)

    # -- appends ------------------------------------------------------------------

    @property
    def position(self) -> int:
        """Dataset records accounted for so far (replayed + newly written)."""
        return self._replay_index + self.records_written

    @property
    def replayed(self) -> int:
        """Records verified against the salvaged prefix instead of written."""
        return self._replay_index

    def append(self, row: Dict) -> None:
        """Append one record — or verify it against the salvage.

        While a salvaged prefix remains, the record the study just
        re-produced must encode to the text of the one already on disk
        (the ``json.dumps`` of the salvaged record); a mismatch means the
        deterministic replay diverged from the crashed run, and the
        journal refuses rather than fork history.
        """
        text = _encode(row)
        if self._replay_index < len(self._replay):
            expected = json.dumps(self._replay[self._replay_index])
            if text != expected:
                raise CheckpointError(
                    f"journal divergence at record {self._replay_index}: "
                    f"replay produced {text[:200]}, journal holds "
                    f"{expected[:200]}; refusing to resume"
                )
            self._replay_index += 1
            return
        self._write_text(text)

    def _write_text(self, text: str) -> None:
        if self._handle is None:
            raise CheckpointError(f"journal {self.path} is not open for appends")
        try:
            self._handle.write(text + "\n")
            self._handle.flush()
            # The record is in the OS page cache, where a SIGKILL cannot
            # reach it; a kill/stall fired here lands at a reproducible
            # journal position (``ckpt.journal.record=kill@N`` is "after
            # the Nth record, header included"), and an errno fired here
            # refuses through the same channel a real disk fault would.
            failpoints.hit("ckpt.journal.record")
        except OSError as error:
            raise CheckpointError(
                f"journal append to {self.path} failed: {error}"
            ) from error
        self.pending += 1
        self.records_written += 1

    def commit(self) -> None:
        """Fsync every record flushed since the last commit (group commit).

        A no-op when nothing is pending.  The checkpoint manager commits
        before each snapshot, so a power loss loses at most the records
        written since the last barrier.
        """
        if not self.pending:
            return
        try:
            fsync_handle(self._handle, tag="journal")
        except OSError as error:
            raise CheckpointError(
                f"journal commit to {self.path} failed: {error}"
            ) from error
        self.fsyncs += 1
        self.pending = 0

    def close(self) -> None:
        """Commit any pending tail, then close (appends after this raise)."""
        if self._handle is None:
            return
        try:
            self.commit()
        finally:
            self._handle.close()
            self._handle = None
