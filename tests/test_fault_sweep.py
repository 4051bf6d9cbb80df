"""The storage-fault sweep: every registered failpoint, two outcomes only.

For each name in the failpoint catalog (:mod:`repro.failpoints`) this
sweep injects a fault at that chokepoint mid-run and then drives the
documented recovery path.  Exactly two endings are acceptable:

1. **Byte-identical recovery** — the process is SIGKILLed (or torn) and
   a ``--resume`` / restart converges on the same final dataset bytes as
   an uninterrupted run (pinned by ``GOLDEN`` / a per-argset reference).
2. **A named refusal** — the run exits through one of the documented
   error channels (exit 2 store corruption, 3 checkpoint refusal,
   5 unrecoverable shards, 6 i/o error, 1 injected ``raise``) with a
   prefixed one-line message on stderr.

Anything else — a silent truncation, a raw traceback exit, a hang (the
subprocess timeout) — fails the sweep.  ``test_sweep_covers_every_
registered_failpoint`` pins the scenario table to the catalog, so a new
``register()`` without a sweep scenario fails tier-1.
"""

import hashlib
import json
import os
import random  # repro-lint: allow-DET002 seeded fixture data, no study rng
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import failpoints
from repro.store import HoneypotStore
from tests.shard.test_merge import build_completed, make_plan

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: sha256 of the dataset a clean SMALL run exports (any checkpoint/resume
#: history must converge on these bytes).
GOLDEN = "9b9aa9804219b6927d750cca038fd30f1786053542694fd593979bbb404ff04f"
SMALL = ["--scale", "0.02", "--seed", "11", "--population", "250"]
#: Sharded variant (3 campaigns keeps the worker fleet small and fast).
SHARD = SMALL + ["--jobs", "2", "--campaigns", "3"]

#: Injection envs scrubbed from every subprocess so only the scenario's
#: own spec is armed (resume legs run with nothing armed at all).
INJECTION_ENVS = (
    failpoints.ENV_VAR,
    "REPRO_SHARD_TARGET",
    "REPRO_SHARD_POISON",
)


def cli(cwd: Path, args, env_extra=None, timeout=240):
    """Run ``repro-study <args>`` in ``cwd``; the timeout is the no-hang gate."""
    env = {k: v for k, v in os.environ.items() if k not in INJECTION_ENVS}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SHARD_HEARTBEAT_TIMEOUT"] = "3"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_killed(proc, spec: str) -> None:
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL from {spec}, got rc={proc.returncode}\n"
        f"{proc.stderr}"
    )
    assert f"failpoint fired: {spec}" in proc.stderr, proc.stderr


def assert_named_error(proc, code: int, prefix: str) -> None:
    assert proc.returncode == code, (
        f"expected exit {code} ({prefix!r}), got rc={proc.returncode}\n"
        f"{proc.stderr}"
    )
    assert prefix in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def crash_then_resume(tmp: Path, spec: str) -> None:
    """Outcome 1: SIGKILL at the failpoint, resume byte-identical."""
    crash = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl",
        "--checkpoint-dir", "ck", "--failpoint", spec,
    ])
    assert_killed(crash, spec)
    resume = cli(tmp, ["run", *SMALL, "--out", "out.jsonl", "--resume", "ck"])
    assert resume.returncode in (0, 1), resume.stderr
    assert "injected" not in resume.stderr
    assert sha256(tmp / "out.jsonl") == GOLDEN


def crash_for_resume_legs(tmp: Path) -> None:
    """Seed a crashed run whose manifest lists ≥2 durable snapshots.

    Manifest writes land at: 1 fresh-start (empty), 2 +build snapshot,
    3 +collect snapshot, so killing at hit 4 leaves a manifest listing
    two snapshots — a resume must load both, and only the *latest* one
    is allowed to be bad (the torn-write fallback); faults on the older
    snapshot must refuse.
    """
    crash = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl",
        "--checkpoint-dir", "ck", "--failpoint", "ckpt.manifest.write=kill@4",
    ])
    assert_killed(crash, "ckpt.manifest.write=kill@4")


class Refs:
    """Lazily computed clean-run references shared across the sweep."""

    def __init__(self, factory) -> None:
        self._factory = factory
        self._shard_hash = None

    def shard_hash(self) -> str:
        if self._shard_hash is None:
            tmp = self._factory.mktemp("shard-ref")
            clean = cli(tmp, ["run", *SHARD, "--out", "out.jsonl"])
            assert clean.returncode in (0, 1), clean.stderr
            self._shard_hash = sha256(tmp / "out.jsonl")
        return self._shard_hash


@pytest.fixture(scope="session")
def refs(tmp_path_factory) -> Refs:
    return Refs(tmp_path_factory)


# --------------------------------------------------------------------------- #
# Scenarios — one per registered failpoint
# --------------------------------------------------------------------------- #


def scenario_durable_write_data(tmp, refs):
    crash_then_resume(tmp, "durable.write.data=torn@5")


def scenario_durable_fsync_file(tmp, refs):
    crash_then_resume(tmp, "durable.fsync.file=kill@4")


def scenario_durable_rename(tmp, refs):
    # The torn rename leaves a ``*.tmp`` orphan; resume must sweep it.
    spec = "durable.rename=torn@3"
    crash = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl",
        "--checkpoint-dir", "ck", "--failpoint", spec,
    ])
    assert_killed(crash, spec)
    assert list((tmp / "ck").glob("*.tmp")), "torn rename left no orphan"
    resume = cli(tmp, ["run", *SMALL, "--out", "out.jsonl", "--resume", "ck"])
    assert resume.returncode in (0, 1), resume.stderr
    assert not list((tmp / "ck").glob("*.tmp")), "resume left the orphan"
    assert sha256(tmp / "out.jsonl") == GOLDEN


def scenario_durable_fsync_dir(tmp, refs):
    crash_then_resume(tmp, "durable.fsync.dir=kill@2")


def scenario_ckpt_journal_record(tmp, refs):
    # Outcome 2 first: the disk fills mid-journal — a named refusal.
    full = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl", "--checkpoint-dir", "ckfull",
        "--failpoint", "ckpt.journal.record=errno:ENOSPC@20",
    ])
    assert_named_error(full, 3, "checkpoint error")
    assert not (tmp / "out.jsonl").exists(), "refused run must not export"
    # Outcome 1: power loss mid-journal, resume byte-identical.
    crash_then_resume(tmp, "ckpt.journal.record=kill@37")


def scenario_ckpt_snapshot_write(tmp, refs):
    full = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl", "--checkpoint-dir", "ckfull",
        "--failpoint", "ckpt.snapshot.write=errno:ENOSPC@1",
    ])
    assert_named_error(full, 3, "checkpoint error")
    crash_then_resume(tmp, "ckpt.snapshot.write=kill@2")


def scenario_ckpt_snapshot_corrupt(tmp, refs):
    # The latest manifest-listed snapshot is truncated before the kill;
    # resume must fall back to the previous snapshot + WAL replay.
    crash_then_resume(tmp, "ckpt.snapshot.corrupt=torn@2")


def scenario_ckpt_snapshot_load(tmp, refs):
    crash_for_resume_legs(tmp)
    broken = cli(
        tmp,
        ["run", *SMALL, "--out", "out.jsonl", "--resume", "ck"],
        env_extra={failpoints.ENV_VAR: "ckpt.snapshot.load=errno:EIO@1"},
    )
    assert_named_error(broken, 3, "checkpoint error")
    resume = cli(tmp, ["run", *SMALL, "--out", "out.jsonl", "--resume", "ck"])
    assert resume.returncode in (0, 1), resume.stderr
    assert sha256(tmp / "out.jsonl") == GOLDEN


def scenario_ckpt_manifest_write(tmp, refs):
    crash_then_resume(tmp, "ckpt.manifest.write=kill@3")


def scenario_ckpt_manager_resume(tmp, refs):
    crash_for_resume_legs(tmp)
    broken = cli(
        tmp,
        ["run", *SMALL, "--out", "out.jsonl", "--resume", "ck"],
        env_extra={failpoints.ENV_VAR: "ckpt.manager.resume=errno:EIO@1"},
    )
    assert_named_error(broken, 6, "i/o error")
    resume = cli(tmp, ["run", *SMALL, "--out", "out.jsonl", "--resume", "ck"])
    assert resume.returncode in (0, 1), resume.stderr
    assert sha256(tmp / "out.jsonl") == GOLDEN


def scenario_store_open(tmp, refs):
    seed = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl", "--store", "study.sqlite",
    ])
    assert seed.returncode in (0, 1), seed.stderr
    broken = cli(
        tmp,
        ["query", "study.sqlite", "verify"],
        env_extra={failpoints.ENV_VAR: "store.open=errno:EIO@1"},
    )
    assert_named_error(broken, 2, "store error")
    healthy = cli(tmp, ["query", "study.sqlite", "verify"])
    assert healthy.returncode == 0, healthy.stderr
    assert "ok" in healthy.stdout


def scenario_store_ingest_batch(tmp, refs):
    # The study itself completes and exports; only the store leg refuses.
    broken = cli(tmp, [
        "run", *SMALL, "--out", "out.jsonl", "--store", "study.sqlite",
        "--failpoint", "store.ingest.batch=errno:ENOSPC@1",
    ])
    assert_named_error(broken, 2, "store error")
    assert sha256(tmp / "out.jsonl") == GOLDEN  # dataset leg unharmed


def scenario_store_export_rows(tmp, refs):
    # In-process: the export stream dies on EIO, is disarmed, and then
    # produces the identical bytes the dataset would.
    failpoints.reset()
    rng = random.Random(20140312)
    plan = make_plan(2)
    completed = build_completed(plan, list(range(1_000_000, 1_000_200)), rng)
    dataset = completed[plan[0].shard_id][0]
    reference = tmp / "reference.jsonl"
    dataset.to_jsonl(reference)
    with HoneypotStore.create(tmp / "s.sqlite") as store:
        store.ingest_dataset(dataset)
        failpoints.configure("store.export.rows=errno:EIO@1")
        with pytest.raises(OSError):
            store.to_jsonl(tmp / "broken.jsonl")
        failpoints.reset()
        store.to_jsonl(tmp / "export.jsonl")
    assert (tmp / "export.jsonl").read_bytes() == reference.read_bytes()


def scenario_shard_worker_hang(tmp, refs):
    spec = "shard.worker.hang=hang@1"
    run = cli(tmp, ["run", *SHARD, "--out", "out.jsonl", "--failpoint", spec])
    assert run.returncode in (0, 1), run.stderr
    assert f"failpoint fired: {spec}" in run.stderr, run.stderr
    assert sha256(tmp / "out.jsonl") == refs.shard_hash()


def scenario_shard_worker_poison(tmp, refs):
    spec = "shard.worker.poison=raise:injected poison@1"
    run = cli(tmp, [
        "run", *SHARD, "--shard-retry", "0",
        "--out", "out.jsonl", "--failpoint", spec,
    ])
    assert_named_error(run, 5, "unrecoverable shard failure")
    assert "injected poison" in run.stderr
    assert not (tmp / "out.jsonl").exists(), "refused run must not export"


def scenario_shard_worker_heartbeat(tmp, refs):
    # Hit 1 is the synchronous start beat; hit 2 is the first timer beat
    # (~0.2s in).  A small-scale worker can finish its study before that
    # beat, so every first-attempt worker also stalls 1s at its 10th
    # journal record, which holds it alive past the first timer beat.
    # Restarted workers scrub their failpoints and run clean.
    spec = "shard.worker.heartbeat=kill@2"
    run = cli(tmp, [
        "run", *SHARD, "--out", "out.jsonl", "--failpoint", spec,
        "--failpoint", "ckpt.journal.record=stall:1@10",
    ])
    assert run.returncode in (0, 1), run.stderr
    assert f"failpoint fired: {spec}" in run.stderr, run.stderr
    assert sha256(tmp / "out.jsonl") == refs.shard_hash()


def scenario_shard_worker_state(tmp, refs):
    spec = "shard.worker.state=kill@1"
    run = cli(tmp, ["run", *SHARD, "--out", "out.jsonl", "--failpoint", spec])
    assert run.returncode in (0, 1), run.stderr
    assert f"failpoint fired: {spec}" in run.stderr, run.stderr
    assert sha256(tmp / "out.jsonl") == refs.shard_hash()


def scenario_shard_worker_done(tmp, refs):
    spec = "shard.worker.done=kill@1"
    run = cli(tmp, ["run", *SHARD, "--out", "out.jsonl", "--failpoint", spec])
    assert run.returncode in (0, 1), run.stderr
    assert f"failpoint fired: {spec}" in run.stderr, run.stderr
    assert sha256(tmp / "out.jsonl") == refs.shard_hash()


def scenario_shard_supervisor_restart(tmp, refs):
    # The supervisor itself dies between noticing a worker crash and
    # relaunching it; a supervisor-level --resume picks the run back up
    # from the per-shard WALs.
    crash = cli(tmp, [
        "run", *SHARD, "--out", "out.jsonl", "--checkpoint-dir", "cks",
        "--failpoint", "shard.worker.state=kill@1",
        "--failpoint", "shard.supervisor.restart=kill@1",
    ])
    assert_killed(crash, "shard.supervisor.restart=kill@1")
    resume = cli(tmp, ["run", *SHARD, "--out", "out.jsonl", "--resume", "cks"])
    assert resume.returncode in (0, 1), resume.stderr
    assert sha256(tmp / "out.jsonl") == refs.shard_hash()


SCENARIOS = {
    "durable.write.data": scenario_durable_write_data,
    "durable.fsync.file": scenario_durable_fsync_file,
    "durable.rename": scenario_durable_rename,
    "durable.fsync.dir": scenario_durable_fsync_dir,
    "ckpt.journal.record": scenario_ckpt_journal_record,
    "ckpt.snapshot.write": scenario_ckpt_snapshot_write,
    "ckpt.snapshot.corrupt": scenario_ckpt_snapshot_corrupt,
    "ckpt.snapshot.load": scenario_ckpt_snapshot_load,
    "ckpt.manifest.write": scenario_ckpt_manifest_write,
    "ckpt.manager.resume": scenario_ckpt_manager_resume,
    "store.open": scenario_store_open,
    "store.ingest.batch": scenario_store_ingest_batch,
    "store.export.rows": scenario_store_export_rows,
    "shard.worker.hang": scenario_shard_worker_hang,
    "shard.worker.poison": scenario_shard_worker_poison,
    "shard.worker.heartbeat": scenario_shard_worker_heartbeat,
    "shard.worker.state": scenario_shard_worker_state,
    "shard.worker.done": scenario_shard_worker_done,
    "shard.supervisor.restart": scenario_shard_supervisor_restart,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_failpoint_scenario(name, tmp_path, refs):
    SCENARIOS[name](tmp_path, refs)


def test_sweep_covers_every_registered_failpoint():
    assert sorted(SCENARIOS) == failpoints.all_failpoints(), (
        "every registered failpoint needs a sweep scenario (and every "
        "scenario a registration)"
    )


# --------------------------------------------------------------------------- #
# The disabled framework is invisible
# --------------------------------------------------------------------------- #


class TestZeroFailpointIdentity:
    def test_plain_run_matches_the_golden_bytes(self, tmp_path):
        run = cli(tmp_path, ["run", *SMALL, "--out", "out.jsonl"])
        assert run.returncode in (0, 1), run.stderr
        assert sha256(tmp_path / "out.jsonl") == GOLDEN

    def test_empty_env_spec_is_a_no_op(self, tmp_path):
        run = cli(
            tmp_path,
            ["run", *SMALL, "--out", "out.jsonl"],
            env_extra={failpoints.ENV_VAR: ""},
        )
        assert run.returncode in (0, 1), run.stderr
        assert sha256(tmp_path / "out.jsonl") == GOLDEN

    def test_count_coverage_mode_does_not_change_the_bytes(self, tmp_path):
        # ``*=count`` arms every failpoint in pure-counting mode: hits are
        # recorded, nothing fires, and the dataset is still byte-golden.
        run = cli(
            tmp_path,
            ["run", *SMALL, "--out", "out.jsonl", "--checkpoint-dir", "ck"],
            env_extra={failpoints.ENV_VAR: "*=count"},
        )
        assert run.returncode in (0, 1), run.stderr
        assert sha256(tmp_path / "out.jsonl") == GOLDEN


class TestResumeManifestDeterminism:
    def test_deterministic_sections_survive_crash_resume(self, tmp_path):
        clean = cli(tmp_path, [
            "run", *SMALL, "--out", "clean.jsonl", "--metrics", "clean.json",
        ])
        assert clean.returncode in (0, 1), clean.stderr
        # --metrics rides on both legs: metrics counters are part of the
        # barrier state, and a run checkpointed without them refuses to
        # resume with them (a named divergence, tested elsewhere).
        crash = cli(tmp_path, [
            "run", *SMALL, "--out", "out.jsonl", "--checkpoint-dir", "ck",
            "--metrics", "crash.json",
            "--failpoint", "ckpt.journal.record=kill@400",
        ])
        assert_killed(crash, "ckpt.journal.record=kill@400")
        resume = cli(tmp_path, [
            "run", *SMALL, "--out", "out.jsonl", "--resume", "ck",
            "--metrics", "resumed.json",
        ])
        assert resume.returncode in (0, 1), resume.stderr
        clean_manifest = json.loads((tmp_path / "clean.json").read_text())
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        for section in ("config_hash", "seed", "counters", "gauges", "dataset"):
            assert resumed[section] == clean_manifest[section], section

    def test_toggling_metrics_across_resume_is_a_named_refusal(self, tmp_path):
        # Counters live in the barrier state, so resuming a no-metrics
        # checkpoint with --metrics cannot be made deterministic; the
        # manager refuses by name instead of silently diverging.
        crash = cli(tmp_path, [
            "run", *SMALL, "--out", "out.jsonl", "--checkpoint-dir", "ck",
            "--failpoint", "ckpt.journal.record=kill@400",
        ])
        assert_killed(crash, "ckpt.journal.record=kill@400")
        resume = cli(tmp_path, [
            "run", *SMALL, "--out", "out.jsonl", "--resume", "ck",
            "--metrics", "resumed.json",
        ])
        assert_named_error(resume, 3, "checkpoint error")
        assert "diverged" in resume.stderr
