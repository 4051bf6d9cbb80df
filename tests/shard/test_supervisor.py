"""Supervisor state-machine tests: ok, crash-restart, hang, quarantine.

These run real worker processes (spawn context) over a deliberately tiny
study so each scenario completes in seconds.  Faults are injected through
``REPRO_FAILPOINTS`` specs scoped by ``REPRO_SHARD_TARGET`` (see
:mod:`repro.shard.worker`): a SIGKILL or hang fires only on the targeted
shard's first attempt, so the supervisor's restart heals it.  Poison
(``REPRO_SHARD_POISON``) recurs on every attempt.
"""

import json

import pytest

from repro import failpoints
from repro.ckpt.manager import CheckpointConfig
from repro.honeypot.study import StudyConfig
from repro.obs.metrics import ObservabilityConfig
from repro.osn.population import PopulationConfig
from repro.osn.resilient import CircuitBreaker, ResilientAPI
from repro.shard.errors import ShardError
from repro.shard.supervisor import ShardSupervisor
from repro.shard.plan import plan_shards
from repro.shard.worker import POISON_ENV, TARGET_ENV

SEED = 11


def tiny_config(campaigns=2, seed=SEED, checkpoint_dir=None, resume=False):
    config = StudyConfig(
        seed=seed,
        scale=0.02,
        population=PopulationConfig(
            n_users=250, n_normal_pages=83, n_spam_pages=30
        ),
        observability=ObservabilityConfig(enabled=True),
    )
    config.active_spec_ids = [
        spec.campaign_id for spec in config.specs[:campaigns]
    ]
    if checkpoint_dir is not None:
        config.checkpoint = CheckpointConfig(
            directory=checkpoint_dir, resume=resume
        )
    return config


def run_supervised(config, jobs=2, **kwargs):
    return ShardSupervisor(config, jobs=jobs, **kwargs).run()


@pytest.fixture
def scoped_env(monkeypatch):
    """Guarantee no injection env leaks between tests."""
    for name in (failpoints.ENV_VAR, TARGET_ENV, POISON_ENV):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestHappyPath:
    def test_all_shards_ok_and_merged(self, scoped_env):
        result = run_supervised(tiny_config())
        assert [o.status for o in result.outcomes.values()] == ["ok", "ok"]
        assert result.quarantined == []
        assert result.degraded_section is None
        assert len(result.dataset.campaigns) == 2
        assert result.dataset.baseline, "primary shard must collect baseline"
        statuses = [p["status"] for p in result.shards_section["plan"]]
        assert statuses == ["ok", "ok"]
        assert result.execution_section["jobs"] == 2

    def test_jobs_validation(self):
        with pytest.raises(ShardError, match="jobs"):
            ShardSupervisor(tiny_config(), jobs=0)
        with pytest.raises(ShardError, match="retry"):
            ShardSupervisor(tiny_config(), jobs=1, shard_retry=-1)

    def test_completed_shards_skip_on_resume(self, scoped_env, tmp_path):
        root = tmp_path / "ck"
        first = run_supervised(tiny_config(checkpoint_dir=root))
        resumed = run_supervised(
            tiny_config(checkpoint_dir=root, resume=True)
        )
        # Every shard already has done.json: nothing re-runs.
        assert all(o.attempts == 0 for o in resumed.outcomes.values())
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.dataset.to_jsonl(out_a)
        resumed.dataset.to_jsonl(out_b)
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCrashRestart:
    def test_sigkilled_worker_resumes_from_its_wal(self, scoped_env, tmp_path):
        reference = run_supervised(tiny_config())
        config = tiny_config()
        target = plan_shards(config)[1].shard_id
        scoped_env.setenv(TARGET_ENV, target)
        scoped_env.setenv(failpoints.ENV_VAR, "ckpt.journal.record=kill@25")
        result = run_supervised(config)
        assert result.outcomes[target].status == "ok"
        assert result.outcomes[target].attempts == 2, (
            "the injected SIGKILL must have cost exactly one restart"
        )
        out_a, out_b = tmp_path / "ref.jsonl", tmp_path / "crashed.jsonl"
        reference.dataset.to_jsonl(out_a)
        result.dataset.to_jsonl(out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert result.checkpoint["resumed"] is True

    def test_hung_worker_is_sigkilled_and_restarted(self, scoped_env):
        config = tiny_config()
        target = plan_shards(config)[1].shard_id
        scoped_env.setenv(TARGET_ENV, target)
        scoped_env.setenv(failpoints.ENV_VAR, "shard.worker.hang=hang")
        result = run_supervised(config, heartbeat_timeout=1.5)
        assert result.outcomes[target].status == "ok"
        assert result.outcomes[target].attempts == 2


class TestQuarantine:
    def test_poison_shard_quarantined_run_degrades(self, scoped_env):
        config = tiny_config(campaigns=3)
        plan = plan_shards(config)
        target = plan[2].shard_id
        scoped_env.setenv(TARGET_ENV, target)
        scoped_env.setenv(POISON_ENV, "1")
        result = run_supervised(config, shard_retry=1)
        outcome = result.outcomes[target]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2  # initial + one retry
        assert "injected poison" in outcome.error
        assert result.quarantined == [target]
        assert result.degraded_section == {
            "quarantined": [target],
            "campaigns_lost": [plan[2].campaign_ids[0]],
        }
        # The surviving campaigns merged normally.
        assert len(result.dataset.campaigns) == 2
        assert plan[2].campaign_ids[0] not in result.dataset.campaigns

    def test_poisoned_primary_is_unrecoverable(self, scoped_env):
        config = tiny_config()
        target = plan_shards(config)[0].shard_id
        scoped_env.setenv(TARGET_ENV, target)
        scoped_env.setenv(POISON_ENV, "1")
        with pytest.raises(ShardError, match="primary"):
            run_supervised(config, shard_retry=0)

    def test_every_shard_poisoned_is_unrecoverable(self, scoped_env):
        config = tiny_config()
        scoped_env.setenv(POISON_ENV, "1")  # untargeted: poisons every shard
        with pytest.raises(ShardError, match="every shard"):
            run_supervised(config, shard_retry=0)


class TestResilienceStateRoundTrip:
    """CircuitBreaker/ResilientAPI state survives a worker restart.

    A restarted worker reconstructs its crawl stack and loads the breaker
    states from the shard's snapshot; the state_dict round-trip is what
    that path relies on, so it is pinned here against adversarial
    mid-cooldown and half-open captures, through JSON (the snapshot
    serialisation) rather than in-memory copies.
    """

    def _trip(self, breaker):
        for _ in range(breaker.threshold):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_breaker_round_trips_mid_cooldown(self):
        breaker = CircuitBreaker(threshold=3, cooldown=5)
        self._trip(breaker)
        assert breaker.allow() is False  # one call swallowed
        captured = json.loads(json.dumps(breaker.state_dict()))

        restored = CircuitBreaker(threshold=3, cooldown=5)
        restored.load_state_dict(captured)
        assert restored.state == CircuitBreaker.OPEN
        # The cooldown continues where it stood: 4 more swallowed calls
        # (not 5) until the half-open probe.
        allowed = [restored.allow() for _ in range(4)]
        assert allowed == [False, False, False, True]
        assert restored.state == CircuitBreaker.HALF_OPEN

    def test_breaker_round_trips_failure_streak(self):
        breaker = CircuitBreaker(threshold=4, cooldown=2)
        breaker.record_failure()
        breaker.record_failure()
        restored = CircuitBreaker(threshold=4, cooldown=2)
        restored.load_state_dict(json.loads(json.dumps(breaker.state_dict())))
        # Two more failures (not four) trip the restored breaker.
        assert restored.record_failure() is False
        assert restored.record_failure() is True
        assert restored.state == CircuitBreaker.OPEN

    def test_resilient_api_round_trips_all_breakers(self):
        class _Inner:
            stats = None

        api = ResilientAPI(_Inner())
        self._trip(api.breaker("get_profile"))
        api.breaker("get_friend_list").record_failure()
        captured = json.loads(json.dumps(api.state_dict()))

        restored = ResilientAPI(_Inner())
        restored.load_state_dict(captured)
        assert restored.state_dict() == captured
        assert restored.breaker("get_profile").state == CircuitBreaker.OPEN
