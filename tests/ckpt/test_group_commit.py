"""Group commit: the journal is fsync'd once per barrier, never behind one.

Records are flushed as they are appended (a SIGKILL keeps them) but only
fsync'd when the checkpoint manager commits, just before each snapshot.
These tests pin the two halves of that contract: no snapshot ever counts
a record that is not on stable storage, and a power loss, which drops
whatever was not fsync'd, still resumes to the uninterrupted bytes.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

import repro.ckpt.journal as journal_module
import repro.ckpt.manager as manager_module
from repro.ckpt.journal import DatasetJournal
from repro.ckpt.manager import JOURNAL_NAME, CheckpointConfig, CheckpointManager
from repro.honeypot.study import HoneypotStudy, StudyConfig

STATE = {"rng": {"study": 1}, "metrics": {"counters": {"x": 1}}}


def tiny_config(directory=None, **checkpoint_kwargs) -> StudyConfig:
    config = StudyConfig(seed=11, scale=0.02)
    if directory is not None:
        config.checkpoint = CheckpointConfig(directory=directory, **checkpoint_kwargs)
    return config


def dataset_bytes(artifacts, path: Path) -> bytes:
    artifacts.dataset.to_jsonl(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def plain_bytes(tmp_path_factory):
    """Dataset bytes of the tiny study run with checkpointing off."""
    path = tmp_path_factory.mktemp("plain") / "dataset.jsonl"
    return dataset_bytes(HoneypotStudy(tiny_config()).run(), path)


@pytest.fixture
def synced_sizes(monkeypatch):
    """Journal file size at each journal fsync, in order."""
    sizes = []
    real_fsync = journal_module.fsync_handle

    def recording_fsync(handle, tag="file"):
        real_fsync(handle, tag=tag)
        sizes.append(os.fstat(handle.fileno()).st_size)

    monkeypatch.setattr(journal_module, "fsync_handle", recording_fsync)
    return sizes


@pytest.fixture
def snapshot_phases(monkeypatch, synced_sizes):
    """Fail any snapshot that starts while journal bytes are unsynced."""
    phases = []
    real_write = manager_module.write_snapshot

    def checked_write(directory, payload):
        on_disk = (Path(directory) / JOURNAL_NAME).stat().st_size
        assert synced_sizes and synced_sizes[-1] == on_disk, (
            f"snapshot {payload['phase']}@{payload['sim_time']} began with "
            f"{on_disk - synced_sizes[-1]} unsynced journal bytes"
        )
        phases.append(payload["phase"])
        return real_write(directory, payload)

    monkeypatch.setattr(manager_module, "write_snapshot", checked_write)
    return phases


class TestCommitBeforeSnapshot:
    def test_every_study_barrier_commits_first(
        self, tmp_path, snapshot_phases, synced_sizes
    ):
        artifacts = HoneypotStudy(tiny_config(tmp_path / "ck", every_days=3.0)).run()
        stats = artifacts.checkpoint
        assert len(snapshot_phases) == stats["snapshots_written"] > 4
        # The header plus one commit per snapshot, none per record.
        assert len(synced_sizes) == stats["journal_fsyncs"]
        assert stats["journal_fsyncs"] == stats["snapshots_written"] + 1

    def test_interrupt_snapshot_commits_first(
        self, tmp_path, snapshot_phases, synced_sizes
    ):
        config = CheckpointConfig(directory=tmp_path / "ck")
        manager = CheckpointManager.open(config, seed=7, config_hash="abc")
        manager.at_barrier("build", 0, STATE)
        for user_id in range(3):
            manager.journal.append({"type": "liker", "user_id": user_id})
        manager.interrupt(STATE, 720)
        manager.close()
        assert snapshot_phases == ["build", "interrupt"]
        assert len(synced_sizes) == 3  # header, build, interrupt


class TestPowerLoss:
    def test_unsynced_tail_is_rederived_on_resume(
        self, tmp_path, plain_bytes, monkeypatch, synced_sizes
    ):
        """Drop everything after the last commit, as a power loss would."""
        directory = tmp_path / "ck"
        copy = tmp_path / "ck-power-loss"
        copied = {}
        real_append = DatasetJournal.append
        appends = 0

        def append_then_copy(journal, row):
            nonlocal appends
            real_append(journal, row)
            appends += 1
            if appends == 300:
                shutil.copytree(directory, copy)
                copied["synced"] = synced_sizes[-1]

        with monkeypatch.context() as patch:
            patch.setattr(DatasetJournal, "append", append_then_copy)
            original = HoneypotStudy(tiny_config(directory, every_days=3.0)).run()
        assert dataset_bytes(original, tmp_path / "original.jsonl") == plain_bytes

        journal_copy = copy / JOURNAL_NAME
        flushed = journal_copy.stat().st_size
        with journal_copy.open("r+b") as handle:
            handle.truncate(copied["synced"])
        assert flushed > copied["synced"], "the unsynced tail was empty"

        resumed = HoneypotStudy(tiny_config(copy, resume=True)).run()
        assert dataset_bytes(resumed, tmp_path / "resumed.jsonl") == plain_bytes
        stats = resumed.checkpoint
        assert stats["resumed"] is True
        assert stats["barriers_validated"] >= 1
        assert stats["journal_records_written"] > 0
