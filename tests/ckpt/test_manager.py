"""CheckpointManager: barrier persistence, verified resume, refusals."""

from __future__ import annotations

import pytest

from repro.ckpt.errors import CheckpointError
from repro.ckpt.manager import CheckpointConfig, CheckpointManager
from repro.ckpt.snapshot import MANIFEST_NAME
from repro.util.timeutil import DAY

STATE_A = {"rng": {"study": 1}, "metrics": {"counters": {"x": 1}}}
STATE_B = {"rng": {"study": 2}, "metrics": {"counters": {"x": 5}}}


def _open(directory, resume=False, every_days=None, seed=7, config_hash="abc"):
    config = CheckpointConfig(directory=directory, every_days=every_days,
                              resume=resume)
    return CheckpointManager.open(config, seed=seed, config_hash=config_hash)


class TestFreshRun:
    def test_open_creates_journal_and_manifest(self, tmp_path):
        manager = _open(tmp_path / "ck")
        manager.close()
        assert (tmp_path / "ck" / "journal.jsonl").exists()
        assert (tmp_path / "ck" / MANIFEST_NAME).exists()

    def test_barriers_persist_snapshots(self, tmp_path):
        manager = _open(tmp_path / "ck")
        assert manager.at_barrier("build", 0, STATE_A) is None
        manager.journal.append({"type": "liker", "user_id": 1})
        assert manager.at_barrier("simulate", 1440, STATE_B) is None
        stats = manager.stats()
        manager.close()
        assert stats["snapshots_written"] == 2
        assert stats["snapshot_bytes"] > 0
        # 2 phase markers + 1 dataset record
        assert stats["journal_records_written"] == 3
        assert stats["resumed"] is False

    def test_existing_run_without_resume_refuses(self, tmp_path):
        _open(tmp_path / "ck").close()
        with pytest.raises(CheckpointError, match="--resume"):
            _open(tmp_path / "ck")

    def test_barrier_times_cadence(self, tmp_path):
        manager = _open(tmp_path / "ck", every_days=2.0)
        assert manager.barrier_times(0, 7 * DAY) == [2 * DAY, 4 * DAY, 6 * DAY]
        manager.close()
        plain = _open(tmp_path / "ck2")
        assert plain.barrier_times(0, 7 * DAY) == []
        plain.close()


class TestResume:
    def _crashed_run(self, tmp_path):
        """A run that checkpointed twice, journaled once, then 'died'."""
        manager = _open(tmp_path / "ck", every_days=1.0)
        manager.at_barrier("build", 0, STATE_A)
        manager.journal.append({"type": "liker", "user_id": 1})
        manager.at_barrier("simulate", 1440, STATE_B)
        manager.close()  # a SIGKILL is harsher, but the files are the same
        return tmp_path / "ck"

    def test_replay_validates_barriers_and_returns_stored_state(self, tmp_path):
        directory = self._crashed_run(tmp_path)
        manager = _open(directory, resume=True)
        assert manager.resumed is True
        assert manager.every_days == 1.0  # manifest cadence is authoritative
        assert manager.at_barrier("build", 0, STATE_A) == STATE_A
        manager.journal.append({"type": "liker", "user_id": 1})
        assert manager.at_barrier("simulate", 1440, STATE_B) == STATE_B
        # past the last stored barrier: fresh mode again
        assert manager.at_barrier("collect", 2000, STATE_B) is None
        stats = manager.stats()
        manager.close()
        assert stats["barriers_validated"] == 2
        assert stats["journal_records_replayed"] == 3
        assert stats["snapshots_written"] == 1

    def test_divergent_state_refuses(self, tmp_path):
        directory = self._crashed_run(tmp_path)
        manager = _open(directory, resume=True)
        with pytest.raises(CheckpointError, match="resume diverged"):
            manager.at_barrier("build", 0, {"rng": {"study": 999}})
        manager.close()

    def test_journal_position_mismatch_refuses(self, tmp_path):
        directory = self._crashed_run(tmp_path)
        journal = directory / "journal.jsonl"
        header = journal.read_text().splitlines()[0]
        journal.write_text(header + "\n")  # every record after the header lost
        manager = _open(directory, resume=True)
        manager.at_barrier("build", 0, STATE_A)
        # replay "forgets" the journaled liker record -> position drifts
        with pytest.raises(CheckpointError, match="journal records"):
            manager.at_barrier("simulate", 1440, STATE_B)
        manager.close()

    def test_wrong_seed_refuses(self, tmp_path):
        directory = self._crashed_run(tmp_path)
        with pytest.raises(CheckpointError, match="seed"):
            _open(directory, resume=True, seed=8)

    def test_resume_empty_directory_degrades_to_fresh(self, tmp_path):
        manager = _open(tmp_path / "never-used", resume=True)
        assert manager.resumed is False
        assert manager.at_barrier("build", 0, STATE_A) is None
        manager.close()


class TestInterrupt:
    def test_interrupt_snapshot_is_never_validated(self, tmp_path):
        manager = _open(tmp_path / "ck", every_days=1.0)
        manager.at_barrier("build", 0, STATE_A)
        manager.interrupt(STATE_B, sim_time=777)
        manager.close()
        resumed = _open(tmp_path / "ck", resume=True)
        # the mid-phase interrupt snapshot exists but no barrier matches it
        assert resumed.at_barrier("build", 0, STATE_A) == STATE_A
        assert resumed.at_barrier("simulate", 777, STATE_B) is None
        resumed.close()

    def test_interrupt_without_state_is_a_noop(self, tmp_path):
        manager = _open(tmp_path / "ck")
        manager.interrupt(None, sim_time=0)
        assert manager.stats()["snapshots_written"] == 0
        manager.close()


class TestConfigValidation:
    def test_negative_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(directory=tmp_path, every_days=-1.0)
