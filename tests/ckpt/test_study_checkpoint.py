"""Study-level checkpointing: identity, verified resume, chaos, interrupt.

These run a deliberately tiny study (scale 0.02) so each case stays well
under a second of simulated work; the subprocess SIGKILL harness in
``tests/test_checkpoint_resume.py`` covers the real crash path.
"""

from __future__ import annotations

import pytest

from repro.ckpt.errors import CheckpointError
from repro.ckpt.manager import CheckpointConfig
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.faults import FaultProfile


def tiny_config(tmp_path=None, **checkpoint_kwargs) -> StudyConfig:
    config = StudyConfig(seed=11, scale=0.02)
    if tmp_path is not None:
        config.checkpoint = CheckpointConfig(directory=tmp_path, **checkpoint_kwargs)
    return config


@pytest.fixture(scope="module")
def plain_bytes(tmp_path_factory):
    """Dataset bytes of the tiny study run with checkpointing off."""
    artifacts = HoneypotStudy(tiny_config()).run()
    assert artifacts.checkpoint is None
    path = tmp_path_factory.mktemp("plain") / "dataset.jsonl"
    artifacts.dataset.to_jsonl(path)
    return path.read_bytes()


class TestCheckpointedRun:
    def test_byte_identical_to_unchecked_run(self, tmp_path, plain_bytes):
        config = tiny_config(tmp_path / "ck", every_days=3.0)
        artifacts = HoneypotStudy(config).run()
        out = tmp_path / "dataset.jsonl"
        artifacts.dataset.to_jsonl(out)
        assert out.read_bytes() == plain_bytes
        stats = artifacts.checkpoint
        assert stats["resumed"] is False
        # 4 phase boundaries + the every_days mid-simulation barriers
        assert stats["snapshots_written"] > 4
        assert stats["journal_records_written"] > 0
        # Group commit: the header, then one fsync per snapshot.
        assert stats["journal_fsyncs"] == stats["snapshots_written"] + 1

    def test_resume_replays_a_complete_run_byte_identically(
        self, tmp_path, plain_bytes
    ):
        directory = tmp_path / "ck"
        HoneypotStudy(tiny_config(directory, every_days=3.0)).run()
        artifacts = HoneypotStudy(tiny_config(directory, resume=True)).run()
        out = tmp_path / "dataset.jsonl"
        artifacts.dataset.to_jsonl(out)
        assert out.read_bytes() == plain_bytes
        stats = artifacts.checkpoint
        assert stats["resumed"] is True
        assert stats["barriers_validated"] > 4
        assert stats["journal_records_written"] == 0  # everything replay-verified
        assert stats["snapshots_written"] == 0

    def test_existing_directory_without_resume_refuses(self, tmp_path):
        directory = tmp_path / "ck"
        HoneypotStudy(tiny_config(directory)).run()
        with pytest.raises(CheckpointError, match="--resume"):
            HoneypotStudy(tiny_config(directory)).run()

    def test_resume_with_a_different_seed_refuses(self, tmp_path):
        directory = tmp_path / "ck"
        HoneypotStudy(tiny_config(directory)).run()
        config = tiny_config(directory, resume=True)
        config.seed = 12
        with pytest.raises(CheckpointError, match="seed"):
            HoneypotStudy(config).run()

    def test_resume_with_a_different_config_refuses(self, tmp_path):
        directory = tmp_path / "ck"
        HoneypotStudy(tiny_config(directory)).run()
        config = tiny_config(directory, resume=True)
        config.baseline_sample_size += 1
        with pytest.raises(CheckpointError, match="fingerprint"):
            HoneypotStudy(config).run()


class TestChaosResume:
    def test_chaos_run_resumes_byte_identically(self, tmp_path):
        """Breaker/retry state survives resume under fault injection."""
        plain = tiny_config()
        plain.fault_profile = FaultProfile.default()
        reference = HoneypotStudy(plain).run()
        ref_path = tmp_path / "ref.jsonl"
        reference.dataset.to_jsonl(ref_path)

        directory = tmp_path / "ck"
        first = tiny_config(directory, every_days=3.0)
        first.fault_profile = FaultProfile.default()
        HoneypotStudy(first).run()

        again = tiny_config(directory, resume=True)
        again.fault_profile = FaultProfile.default()
        artifacts = HoneypotStudy(again).run()
        out = tmp_path / "resumed.jsonl"
        artifacts.dataset.to_jsonl(out)
        assert out.read_bytes() == ref_path.read_bytes()
        assert artifacts.checkpoint["resumed"] is True
        assert artifacts.checkpoint["barriers_validated"] > 0


class TestInterrupt:
    def test_keyboard_interrupt_writes_a_final_snapshot(self, tmp_path):
        directory = tmp_path / "ck"
        config = tiny_config(directory)
        study = HoneypotStudy(config)

        original = HoneypotStudy._collect_phase

        def bomb(self, components, manager):
            raise KeyboardInterrupt

        HoneypotStudy._collect_phase = bomb
        try:
            with pytest.raises(KeyboardInterrupt):
                study.run()
        finally:
            HoneypotStudy._collect_phase = original
        snapshots = sorted(p.name for p in directory.glob("snapshot-interrupt-*"))
        assert len(snapshots) == 1
        # the interrupted run resumes cleanly from its phase snapshots
        artifacts = HoneypotStudy(tiny_config(directory, resume=True)).run()
        assert artifacts.checkpoint["resumed"] is True
