"""Checkpoint orchestration: barriers, journaling, and verified resume.

The :class:`CheckpointManager` is the study's one handle on durability.
It owns the checkpoint directory — the write-ahead
:class:`~repro.ckpt.journal.DatasetJournal` plus the snapshot files and
their manifest — and exposes exactly two behaviours:

* **Fresh mode** — at every barrier the study reaches, commit (fsync) the
  journal, then write an atomic snapshot of the full serialisable state
  and index it in the manifest; journal every dataset record the instant
  it exists.
* **Resume mode** — the study re-executes deterministically from its seed
  (the social network and event closures are reconstructed by replay, not
  deserialised); the manager *verifies* that replay against the crashed
  run: every journal record re-produced must equal the salvaged one, and
  at every barrier the crashed run also reached, the freshly computed
  state must equal the stored snapshot bit-for-bit, after which the
  stored state is loaded back into the live components as the authority.
  Any divergence — different config, different seed, nondeterministic
  code, a corrupt file — refuses with a
  :class:`~repro.ckpt.errors.CheckpointError` instead of silently forking
  history.  Once replay passes the last stored barrier, the manager flips
  to fresh mode and the run continues checkpointing as if never killed.

The result is the byte-identical-resume contract the kill-and-resume
harness (``make crashtest``) enforces end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import failpoints
from repro.ckpt.errors import CheckpointError
from repro.ckpt.journal import DatasetJournal, JournalRecovery, read_journal
from repro.ckpt.snapshot import (
    barrier_key,
    load_checkpoint_manifest,
    load_snapshot,
    write_checkpoint_manifest,
    write_snapshot,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.durable import sweep_stale_tmp
from repro.util.timeutil import DAY
from repro.util.validation import check_positive

#: The journal file inside every checkpoint directory.
JOURNAL_NAME = "journal.jsonl"


@dataclass
class CheckpointConfig:
    """How (and whether to resume) a checkpointed run.

    Attributes
    ----------
    directory:
        The checkpoint directory (journal + snapshots + manifest).
    every_days:
        Additional mid-simulation snapshot cadence in simulated days;
        ``None`` snapshots at phase boundaries only.  Ignored on resume —
        the cadence recorded in the directory's manifest is authoritative,
        because barrier times must line up with the crashed run's.
    resume:
        When True, continue a crashed/killed run found in ``directory``
        (an empty directory degrades to a fresh start); when False, the
        directory must not already hold a checkpointed run.
    shard_id:
        When set, this checkpoint directory belongs to one shard of a
        sharded run (``repro.shard``); the id is stamped into the journal
        header and manifest so a shard can never resume from another
        shard's directory.  ``None`` for unsharded runs.
    """

    directory: Path
    every_days: Optional[float] = None
    resume: bool = False
    shard_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.every_days is not None:
            check_positive(self.every_days, "every_days")


class CheckpointManager:
    """Owns one checkpoint directory for one study run."""

    def __init__(
        self,
        directory: Path,
        seed: int,
        config_hash: str,
        every_days: Optional[float],
        journal: DatasetJournal,
        stored: Optional[Dict[str, Dict]] = None,
        entries: Optional[Dict[str, Dict]] = None,
        metrics: Optional[MetricsRegistry] = None,
        shard_id: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.seed = seed
        self.config_hash = config_hash
        self.every_days = every_days
        self.journal = journal
        self.shard_id = shard_id
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._stored = stored if stored is not None else {}
        self._entries = entries if entries is not None else {}
        self.snapshots_written = 0
        self.snapshot_bytes = 0
        self.barriers_validated = 0
        self.resumed = bool(stored)

    # -- construction -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        config: CheckpointConfig,
        seed: int,
        config_hash: str,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "CheckpointManager":
        """Open ``config.directory`` for a fresh or resumed run."""
        metrics = metrics if metrics is not None else NULL_METRICS
        directory = Path(config.directory)
        directory.mkdir(parents=True, exist_ok=True)
        # A kill between temp-write and rename strands a *.tmp sibling;
        # the committed files are still the last complete versions, so the
        # orphans are garbage — sweep them before trusting the directory.
        swept = sweep_stale_tmp(directory)
        if swept:
            metrics.trace_event(
                "checkpoint_tmp_swept",
                directory=str(directory),
                removed=[path.name for path in swept],
            )
        manifest = load_checkpoint_manifest(
            directory, seed, config_hash, shard_id=config.shard_id
        )
        if manifest is None:
            # Nothing on disk: fresh start (also the resume-after-a-kill-
            # before-the-first-checkpoint case).
            journal = DatasetJournal.start(
                directory / JOURNAL_NAME, seed, config_hash, metrics=metrics,
                shard_id=config.shard_id,
            )
            manager = cls(
                directory, seed, config_hash, config.every_days, journal,
                metrics=metrics, shard_id=config.shard_id,
            )
            manager._write_manifest()
            return manager
        if not config.resume:
            raise CheckpointError(
                f"{directory} already holds a checkpointed run; pass --resume "
                "to continue it, or point --checkpoint-dir at a fresh directory"
            )
        failpoints.hit("ckpt.manager.resume")
        recovery: JournalRecovery = read_journal(
            directory / JOURNAL_NAME, metrics=metrics
        )
        journal = DatasetJournal.resume(
            directory / JOURNAL_NAME, recovery, seed, config_hash,
            metrics=metrics, shard_id=config.shard_id,
        )
        stored: Dict[str, Dict] = {}
        entries: Dict[str, Dict] = {}
        listed = manifest.get("snapshots", [])
        # The newest snapshot is the one a crash can have torn (it was
        # being written when the run died); anything older was complete
        # and fsync'd before the manifest referencing it landed.  A bad
        # *latest* snapshot therefore falls back to the previous one +
        # WAL replay; a bad *older* snapshot is real corruption and
        # refuses.  "Latest" = most journal progress, not list order
        # (the manifest sorts entries by barrier-key string).
        latest_key = None
        if listed:
            newest = max(
                listed, key=lambda e: (e["journal_records"], e["sim_time"])
            )
            latest_key = barrier_key(newest["phase"], newest["sim_time"])
        for entry in listed:
            key = barrier_key(entry["phase"], entry["sim_time"])
            try:
                stored[key] = load_snapshot(directory, entry)
            except CheckpointError as error:
                if key != latest_key:
                    raise
                stored.pop(key, None)
                (directory / entry["file"]).unlink(missing_ok=True)
                metrics.trace_event(
                    "checkpoint_snapshot_dropped",
                    barrier=key,
                    file=entry["file"],
                    reason=str(error),
                )
                continue
            entries[key] = entry
        metrics.trace_event(
            "checkpoint_resume",
            directory=str(directory),
            snapshots=len(stored),
            journal_salvaged=recovery.salvaged,
            journal_torn=recovery.torn,
        )
        return cls(
            directory, seed, config_hash, manifest.get("every_days"),
            journal, stored=stored, entries=entries, metrics=metrics,
            shard_id=config.shard_id,
        )

    # -- barriers -----------------------------------------------------------------

    def barrier_times(self, start: int, end: int) -> List[int]:
        """Mid-simulation barrier times (minutes) in the open range (start, end)."""
        if self.every_days is None:
            return []
        step = max(1, int(round(self.every_days * DAY)))
        return list(range(start + step, end, step))

    def at_barrier(self, phase: str, sim_time: int, state: Dict) -> Optional[Dict]:
        """Reach one barrier: verify against the crashed run, or persist.

        Returns the stored state when this barrier was validated against a
        snapshot from the crashed run (the caller then loads it into the
        live components as the authority), or None when the snapshot was
        freshly written.
        """
        key = barrier_key(phase, sim_time)
        self.journal.append(
            {"type": "phase", "phase": phase, "sim_time": int(sim_time)}
        )
        stored = self._stored.get(key)
        if stored is not None:
            if stored["state"] != state:
                raise CheckpointError(
                    f"resume diverged at barrier {key}: the replayed study "
                    "state does not match the stored snapshot (code or "
                    "environment changed since the checkpoint was written); "
                    "refusing to continue"
                )
            if stored["journal_records"] != self.journal.position:
                raise CheckpointError(
                    f"resume diverged at barrier {key}: snapshot expects "
                    f"{stored['journal_records']} journal records, replay "
                    f"has {self.journal.position}"
                )
            self.barriers_validated += 1
            self.metrics.trace_event(
                "checkpoint_validated", time=int(sim_time), barrier=key
            )
            return stored["state"]
        self._persist(phase, sim_time, state)
        return None

    def interrupt(self, state: Optional[Dict], sim_time: int) -> None:
        """Best-effort final snapshot on operator interrupt (Ctrl-C).

        Interrupt snapshots land mid-phase, so resume never validates
        against them — they exist to record how far the run got and to
        leave the manifest freshly fsync'd.
        """
        if state is None:
            return
        self._persist("interrupt", sim_time, state)

    def _persist(self, phase: str, sim_time: int, state: Dict) -> None:
        # Group commit: the snapshot below counts every journal record so
        # far, so those records reach stable storage before it does.
        self.journal.commit()
        entry = write_snapshot(
            self.directory,
            {
                "phase": phase,
                "sim_time": int(sim_time),
                "seed": self.seed,
                "config_hash": self.config_hash,
                "journal_records": self.journal.position,
                "state": state,
            },
        )
        key = barrier_key(phase, sim_time)
        self._entries[key] = entry
        self._write_manifest()
        # Torn-corruption point: fired *after* the manifest references the
        # fresh snapshot, the torn callback truncates that snapshot file —
        # exactly the on-disk shape a crash mid-snapshot leaves, which the
        # latest-snapshot fallback in open() must recover from.
        snapshot_path = self.directory / entry["file"]
        failpoints.hit(
            "ckpt.snapshot.corrupt",
            torn=lambda: snapshot_path.write_text(
                snapshot_path.read_text(encoding="utf-8")[: entry["bytes"] // 2],
                encoding="utf-8",
            ),
        )
        self.snapshots_written += 1
        self.snapshot_bytes += entry["bytes"]
        self.metrics.trace_event(
            "checkpoint_written",
            time=int(sim_time),
            barrier=key,
            bytes=entry["bytes"],
        )

    def _write_manifest(self) -> None:
        write_checkpoint_manifest(
            self.directory,
            self.seed,
            self.config_hash,
            self.every_days,
            [self._entries[key] for key in sorted(self._entries)],
            shard_id=self.shard_id,
        )

    # -- accounting ---------------------------------------------------------------

    def stats(self) -> Dict:
        """Checkpoint-overhead accounting for the perf harness."""
        return {
            "resumed": self.resumed,
            "snapshots_written": self.snapshots_written,
            "snapshot_bytes": self.snapshot_bytes,
            "barriers_validated": self.barriers_validated,
            "journal_records_written": self.journal.records_written,
            "journal_records_replayed": self.journal.replayed,
            "journal_fsyncs": self.journal.fsyncs,
        }

    def close(self) -> None:
        """Release the journal handle."""
        self.journal.close()
