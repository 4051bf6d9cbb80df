"""The kill-and-resume harness (``make crashtest``).

End-to-end enforcement of the durability contract: a study subprocess is
SIGKILLed at several seeded points mid-run, resumed with ``--resume``,
and the final artifacts — the dataset JSONL (byte-for-byte) and the
deterministic sections of the metrics manifest — must equal those of an
uninterrupted same-seed run.  Both the plain and ``--chaos`` crawl paths
are exercised, plus a double-kill chain (crash the resume, resume again).

Kill points are injected via
``REPRO_FAILPOINTS=ckpt.journal.record=kill@<n>``: the child SIGKILLs
*itself* right after its n-th journaled record (see
``repro.ckpt.journal``).  That is a real, uncatchable SIGKILL — no
flush, no atexit — but it lands at a reproducible record boundary
instead of a racy wall-clock timer, so the harness is deterministic
across machines.

Sharded runs (``--jobs N``) extend the same contract: the supervisor
SIGKILLs or loses individual *workers* and the run as a whole must still
come out byte-identical — the crashed shard resumes from its own WAL.
``REPRO_SHARD_TARGET`` scopes the injected specs to a single shard so
the rest of the fleet runs clean.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.honeypot.study import StudyConfig
from repro.obs.manifest import deterministic_sections

REPO = Path(__file__).resolve().parent.parent
SEED = 11
BASE_ARGS = ["run", "--scale", "0.02", "--seed", str(SEED), "--population", "250"]


def cli_env(crash_after=None, extra_env=None):
    """Subprocess environment with the injection knobs explicitly scrubbed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    for name in ("REPRO_FAILPOINTS", "REPRO_SHARD_TARGET", "REPRO_SHARD_POISON"):
        env.pop(name, None)
    if crash_after is not None:
        env["REPRO_FAILPOINTS"] = f"ckpt.journal.record=kill@{crash_after}"
    if extra_env:
        env.update({k: str(v) for k, v in extra_env.items()})
    return env


def run_cli(tmp_path, name, extra, crash_after=None, chaos=False, extra_env=None):
    """One study subprocess; returns (returncode, dataset path, manifest path)."""
    out = tmp_path / f"{name}.jsonl"
    manifest = tmp_path / f"{name}-manifest.json"
    args = BASE_ARGS + ["--out", str(out), "--metrics", str(manifest)]
    if chaos:
        args.append("--chaos")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args + extra,
        env=cli_env(crash_after, extra_env),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return completed, out, manifest


def reference_run(tmp_path, chaos):
    """The uninterrupted, checkpoint-free ground truth for one mode."""
    completed, out, manifest = run_cli(tmp_path, "reference", [], chaos=chaos)
    assert completed.returncode in (0, 1), completed.stderr
    return out.read_bytes(), deterministic_sections(json.loads(manifest.read_text()))


def journal_length(directory):
    return len((directory / "journal.jsonl").read_text().splitlines())


def kill_points(total_records, count):
    """``count`` distinct seeded kill points inside the journal's span."""
    rng = random.Random(0xC0FFEE ^ SEED)
    lo, hi = max(2, total_records // 10), max(3, total_records - 2)
    return sorted(rng.sample(range(lo, hi), count))


def assert_killed(completed):
    assert completed.returncode == -signal.SIGKILL, (
        f"expected the injected SIGKILL, got rc={completed.returncode}\n"
        f"{completed.stderr}"
    )


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
class TestKillAndResume:
    def test_killed_runs_resume_byte_identically(self, tmp_path, chaos):
        ref_bytes, ref_sections = reference_run(tmp_path, chaos)

        # Size the journal from one uninterrupted checkpointed run.
        whole_dir = tmp_path / "ck-whole"
        completed, whole_out, _ = run_cli(
            tmp_path, "whole",
            ["--checkpoint-dir", str(whole_dir), "--checkpoint-every", "5"],
            chaos=chaos,
        )
        assert completed.returncode in (0, 1), completed.stderr
        assert whole_out.read_bytes() == ref_bytes
        total = journal_length(whole_dir)
        assert total > 20, "journal too small to place kill points"

        for point in kill_points(total, count=3):
            name = f"kill{point}"
            directory = tmp_path / f"ck-{name}"
            completed, _, _ = run_cli(
                tmp_path, name,
                ["--checkpoint-dir", str(directory), "--checkpoint-every", "5"],
                crash_after=point, chaos=chaos,
            )
            assert_killed(completed)
            assert journal_length(directory) >= point

            completed, out, manifest = run_cli(
                tmp_path, f"{name}-resumed", ["--resume", str(directory)],
                chaos=chaos,
            )
            assert completed.returncode in (0, 1), completed.stderr
            assert "checkpoint (resumed):" in completed.stdout
            assert out.read_bytes() == ref_bytes, (
                f"dataset diverged after kill at record {point}"
            )
            sections = deterministic_sections(json.loads(manifest.read_text()))
            assert sections == ref_sections, (
                f"deterministic metrics diverged after kill at record {point}"
            )

    def test_double_kill_chain_resumes_byte_identically(self, tmp_path, chaos):
        """Crash the original run, crash the *resume*, then finish."""
        ref_bytes, ref_sections = reference_run(tmp_path, chaos)
        directory = tmp_path / "ck-chain"
        completed, _, _ = run_cli(
            tmp_path, "chain",
            ["--checkpoint-dir", str(directory), "--checkpoint-every", "5"],
            crash_after=40, chaos=chaos,
        )
        assert_killed(completed)
        # the resume's counter starts from zero *newly written* records,
        # so this second kill lands strictly deeper into the run
        completed, _, _ = run_cli(
            tmp_path, "chain-again", ["--resume", str(directory)],
            crash_after=30, chaos=chaos,
        )
        assert_killed(completed)
        completed, out, manifest = run_cli(
            tmp_path, "chain-final", ["--resume", str(directory)], chaos=chaos,
        )
        assert completed.returncode in (0, 1), completed.stderr
        assert out.read_bytes() == ref_bytes
        sections = deterministic_sections(json.loads(manifest.read_text()))
        assert sections == ref_sections


# --------------------------------------------------------------------------- #
# Sharded execution (--jobs N)
# --------------------------------------------------------------------------- #

#: Shard ids follow the plan: s<index>-<campaign_id> over the spec list.
SPEC_IDS = [spec.campaign_id for spec in StudyConfig.small(seed=SEED).specs]
SHARD_IDS = [f"s{i:02d}-{cid}" for i, cid in enumerate(SPEC_IDS)]


def shard_args(jobs, campaigns=3, extra=()):
    return ["--jobs", str(jobs), "--campaigns", str(campaigns), *extra]


class TestShardedDeterminism:
    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    def test_jobs_4_is_byte_identical_to_jobs_1(self, tmp_path, chaos):
        """The acceptance pin: --jobs N is one determinism domain."""
        completed, ref_out, ref_manifest = run_cli(
            tmp_path, "j1", shard_args(jobs=1, campaigns=4), chaos=chaos
        )
        assert completed.returncode == 0, completed.stderr
        ref_sections = deterministic_sections(json.loads(ref_manifest.read_text()))
        assert ref_sections["shards"] is not None

        completed, out, manifest = run_cli(
            tmp_path, "j4", shard_args(jobs=4, campaigns=4), chaos=chaos
        )
        assert completed.returncode == 0, completed.stderr
        assert out.read_bytes() == ref_out.read_bytes()
        sections = deterministic_sections(json.loads(manifest.read_text()))
        assert sections == ref_sections

    def test_sigkilled_worker_resumes_from_its_wal(self, tmp_path):
        """A worker SIGKILLed mid-phase costs a restart, never a byte."""
        completed, ref_out, ref_manifest = run_cli(
            tmp_path, "shard-ref", shard_args(jobs=2)
        )
        assert completed.returncode == 0, completed.stderr

        target = SHARD_IDS[0]  # the primary: the hardest shard to lose
        completed, out, manifest = run_cli(
            tmp_path, "shard-killed", shard_args(jobs=2),
            extra_env={"REPRO_SHARD_TARGET": target,
                       "REPRO_FAILPOINTS": "ckpt.journal.record=kill@25"},
        )
        assert completed.returncode == 0, completed.stderr
        assert out.read_bytes() == ref_out.read_bytes(), (
            "dataset diverged after the worker SIGKILL"
        )
        body = json.loads(manifest.read_text())
        assert body["shard_execution"]["attempts"][target] == 2, (
            "the injected SIGKILL must have cost exactly one restart"
        )
        ref_sections = deterministic_sections(json.loads(ref_manifest.read_text()))
        assert deterministic_sections(body) == ref_sections


class TestShardedExitCodes:
    def test_degraded_run_exits_4_with_manifest_section(self, tmp_path):
        target = SHARD_IDS[2]
        completed, out, manifest = run_cli(
            tmp_path, "degraded", shard_args(jobs=2, extra=["--shard-retry", "0"]),
            extra_env={"REPRO_SHARD_TARGET": target, "REPRO_SHARD_POISON": "1"},
        )
        assert completed.returncode == 4, completed.stderr
        assert "QUARANTINED" in completed.stderr
        body = json.loads(manifest.read_text())
        assert body["degraded"]["quarantined"] == [target]
        assert body["degraded"]["campaigns_lost"] == [SPEC_IDS[2]]
        # The run still completed: the surviving campaigns are all present.
        data = out.read_text()
        assert f'"campaign_id": "{SPEC_IDS[0]}"' in data
        assert f'"campaign_id": "{SPEC_IDS[2]}"' not in data

    def test_lost_primary_exits_5(self, tmp_path):
        completed, _, _ = run_cli(
            tmp_path, "lost-primary",
            shard_args(jobs=2, extra=["--shard-retry", "0"]),
            extra_env={"REPRO_SHARD_TARGET": SHARD_IDS[0],
                       "REPRO_SHARD_POISON": "1"},
        )
        assert completed.returncode == 5, completed.stderr
        assert "unrecoverable shard failure" in completed.stderr

    def test_invalid_jobs_exits_2(self, tmp_path):
        completed, _, _ = run_cli(tmp_path, "badjobs", ["--jobs", "0"])
        assert completed.returncode == 2
        completed, _, _ = run_cli(tmp_path, "badcamp", ["--campaigns", "99"])
        assert completed.returncode == 2


class TestShardedInterrupt:
    def test_sigint_flushes_final_snapshots_for_all_live_shards(self, tmp_path):
        """Satellite of the durability contract: Ctrl-C mid-phase leaves
        every live shard with a durable ``snapshot-interrupt-*``, and the
        run exits 130."""
        root = tmp_path / "ck-int"
        # Untargeted stall: every worker sleeps after its 20th journal
        # record, holding all live shards mid-phase while we interrupt.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli"]
            + BASE_ARGS
            + ["--out", str(tmp_path / "int.jsonl"),
               "--metrics", str(tmp_path / "int-manifest.json")]
            + shard_args(jobs=2, campaigns=2)
            + ["--checkpoint-dir", str(root)],
            env=cli_env(extra_env={
                "REPRO_FAILPOINTS": "ckpt.journal.record=stall:120@20",
            }),
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            journals = [
                root / SHARD_IDS[0] / "ckpt" / "journal.jsonl",
                root / SHARD_IDS[1] / "ckpt" / "journal.jsonl",
            ]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                done = sum(
                    1 for journal in journals
                    if journal.exists()
                    and len(journal.read_text().splitlines()) >= 20
                )
                if done == len(journals):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("workers never reached the stall point")
            time.sleep(0.5)  # let both workers settle into the stall sleep
            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 130, stderr
        for shard_id in SHARD_IDS[:2]:
            snapshots = list(
                (root / shard_id / "ckpt").glob("snapshot-interrupt-*")
            )
            assert snapshots, (
                f"shard {shard_id} exited without flushing a final "
                f"interrupt snapshot\n{stderr}"
            )
