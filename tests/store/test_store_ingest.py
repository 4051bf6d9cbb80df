"""WAL replay and the sharded run's merged dataset land exactly in the store."""

import dataclasses
import random

import pytest

from repro.ckpt.journal import JOURNAL_SCHEMA
from repro.ckpt.manager import CheckpointConfig
from repro.cli import main
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.shard.supervisor import ShardSupervisor
from repro.shard.merge import merge_shards
from repro.store import HoneypotStore, StoreError
from repro.store.ingest import ingest_journal
from tests.shard.test_merge import build_completed, make_plan, state_for

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def checkpointed_run(tmp_path_factory):
    """A checkpointed small run: (config, dataset, journal path)."""
    directory = tmp_path_factory.mktemp("wal")
    config = dataclasses.replace(
        StudyConfig.small(), checkpoint=CheckpointConfig(directory=directory)
    )
    artifacts = HoneypotStudy(config).run()
    return config, artifacts.dataset, directory / "journal.jsonl"


class TestJournalIngest:
    def test_observations_and_terminations_are_exact(
        self, tmp_path, checkpointed_run
    ):
        config, dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            stats = ingest_journal(store, journal, config=config)
            assert stats["rows"] > 0 and not stats["torn"]
            for campaign_id in dataset.campaign_ids():
                want = dataset.campaign(campaign_id)
                got = store.campaign(campaign_id)
                assert got.observations == want.observations
                assert got.terminated_liker_ids == want.terminated_liker_ids
                assert got.total_likes == want.total_likes

    def test_campaign_order_follows_config_specs(
        self, tmp_path, checkpointed_run
    ):
        config, dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal, config=config)
            assert store.campaign_ids() == dataset.campaign_ids()

    def test_likers_and_baseline_are_exact(self, tmp_path, checkpointed_run):
        config, dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal, config=config)
            assert {
                liker.user_id: liker for liker in store.iter_likers()
            } == dataset.likers
            assert list(store.iter_baseline()) == dataset.baseline

    def test_missing_journal_is_empty_ingest(self, tmp_path):
        with HoneypotStore.create(tmp_path / "empty.sqlite") as store:
            stats = ingest_journal(store, tmp_path / "absent.jsonl")
            assert stats == {"records": 0, "rows": 0, "torn": 0}

    def test_unknown_record_type_refuses(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            f'{{"type": "journal-header", "schema": "{JOURNAL_SCHEMA}", '
            '"seed": 1, "config_hash": "x"}\n'
            '{"type": "mystery"}\n'
        )
        with HoneypotStore.create(tmp_path / "bad.sqlite") as store:
            with pytest.raises(StoreError, match="unknown journal record"):
                ingest_journal(store, journal)


class TestShardMergeIngest:
    """``run --jobs N --store``: merge the shards in memory, then ingest."""

    @pytest.fixture()
    def shards(self):
        """(plan, completed) from fabricated shards."""
        rng = random.Random(20140312)
        plan = make_plan(4)
        pool = list(range(1_000_000, 1_000_300))
        return plan, build_completed(plan, pool, rng)

    def assert_store_exports_the_merge(self, tmp_path, plan, completed):
        merged = merge_shards(plan, completed).dataset
        reference = tmp_path / "reference.jsonl"
        merged.to_jsonl(reference)
        with HoneypotStore.create(tmp_path / "merged.sqlite") as store:
            assert store.ingest_dataset(merged) > 0
            exported = tmp_path / "merged.jsonl"
            store.to_jsonl(exported)
        assert exported.read_bytes() == reference.read_bytes()

    def test_store_merge_exports_the_in_memory_merge_bytes(self, tmp_path, shards):
        self.assert_store_exports_the_merge(tmp_path, *shards)

    def test_missing_shards_merge_like_the_reference(self, tmp_path, shards):
        plan, completed = shards
        lost = plan[-1].shard_id
        completed = {k: v for k, v in completed.items() if k != lost}
        self.assert_store_exports_the_merge(tmp_path, plan, completed)

    def assert_refused_run_keeps_the_store(
        self, tmp_path, monkeypatch, capsys, shards, refused, reason
    ):
        """``run --jobs 2 --store`` whose merge of ``refused`` refuses exits 5
        and leaves the previous run's ``--store`` file as it was."""
        db = tmp_path / "previous.sqlite"
        with HoneypotStore.create(db) as store:
            store.ingest_dataset(merge_shards(*shards).dataset)
        before = db.read_bytes()
        # the supervisor's run ends in this merge; no shard process starts
        monkeypatch.setattr(
            ShardSupervisor, "run", lambda supervisor: merge_shards(*refused)
        )
        out = tmp_path / "refused.jsonl"
        assert main(
            ["run", "--jobs", "2", "--out", str(out), "--store", str(db)]
        ) == 5
        assert reason in capsys.readouterr().err
        assert db.read_bytes() == before
        assert not out.exists()

    def test_no_completed_shard_refuses(self, tmp_path, monkeypatch, capsys, shards):
        plan, _ = shards
        self.assert_refused_run_keeps_the_store(
            tmp_path, monkeypatch, capsys, shards, (plan, {}), "no shard completed"
        )

    def test_floor_disagreement_refuses(self, tmp_path, monkeypatch, capsys, shards):
        plan, completed = shards
        dataset, _ = completed[plan[1].shard_id]
        diverged = {
            **completed,
            plan[1].shard_id: (dataset, state_for(plan[1], None, floor=999)),
        }
        self.assert_refused_run_keeps_the_store(
            tmp_path, monkeypatch, capsys, shards, (plan, diverged), "dynamic-id floor"
        )
