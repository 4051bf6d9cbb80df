"""Crash-safe checkpoint/resume for study runs (``repro.ckpt``).

The paper's honeypot deployment ran unattended for weeks; a reproduction
run must survive the same operational reality — a SIGKILL, an OOM, an
operator Ctrl-C — without losing the dataset or its byte-identical-run
guarantee.  This package provides:

* :class:`repro.ckpt.journal.DatasetJournal` — an append-only JSONL write-ahead log of
  everything the study observes, flushed per record and fsync'd once per
  barrier (group commit), with a recovery reader that tolerates a torn
  final line;
* snapshots (:mod:`repro.ckpt.snapshot`) — atomic, sha256-manifested captures of all serialisable
  study state (RNG generator states, engine clock/queue signature,
  monitor progress, circuit breakers, metrics counters) at phase
  boundaries and on a configurable mid-simulation cadence;
* :class:`repro.ckpt.manager.CheckpointManager` — verified deterministic resume: the study
  replays from its seed while the manager proves, record by record and
  barrier by barrier, that the replay equals the crashed run, then
  continues it.  ``repro-study run --checkpoint-dir D`` / ``--resume D``
  is the CLI surface; ``make crashtest`` is the enforcement harness.
"""
