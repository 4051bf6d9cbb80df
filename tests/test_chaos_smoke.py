"""Chaos harness: the seeded small study crawled through injected faults.

Two contracts pinned here (the acceptance gate of the fault subsystem):

1. **Zero-fault identity** — wrapping the crawl surface in the fault
   injector + resilient client with all rates zero produces a dataset
   byte-identical to an unwrapped run: same JSONL bytes, same request
   stats, no RNG consumed by the wrappers.
2. **Chaos survival** — under the default nonzero `FaultProfile`, the
   seeded small study completes end-to-end, every campaign record is
   present, and the injected failures are visible in the `RequestStats`
   counters.  Its JSONL export and request accounting are pinned across
   commits (``CHAOS_GOLDEN``, ``CHAOS_STATS``), so a change that shifts
   a fault draw, a retry or a truncated prefix shows here.

Run directly via ``make chaos``.
"""

import hashlib

import pytest

from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.faults import FaultProfile

SEED = 20140312

#: sha256 of the chaos study's JSONL export and its request accounting,
#: recorded before the crawl loops moved into crawl scopes; any shifted
#: fault draw, retry or truncated prefix changes one of them.
CHAOS_GOLDEN = "2d6ed06ee1dc96ac21f08c3453bfa57a17928580f12ae4d7837273c5648ddaa0"
CHAOS_STATS = {
    "profile": 663,
    "friend_list": 1259,
    "page_likes": 1732,
    "page": 1811,
    "transient_errors": 342,
    "rate_limited": 117,
    "timeouts": 115,
    "truncated": 76,
    "retries": 639,
    "failures": 11,
    "breaker_trips": 0,
    "breaker_fastfails": 0,
    "backoff_minutes": 2297.429878703716,
}


@pytest.fixture(scope="module")
def chaos_artifacts():
    """One seeded small study under the default chaos profile."""
    return HoneypotStudy(StudyConfig.chaos(seed=SEED)).run()


class TestZeroFaultIdentity:
    def test_wrapped_zero_fault_run_is_byte_identical(self, tmp_path):
        plain = HoneypotStudy(StudyConfig.small(seed=SEED)).run()
        wrapped_config = StudyConfig.small(seed=SEED)
        wrapped_config.fault_profile = FaultProfile.none()
        wrapped = HoneypotStudy(wrapped_config).run()

        plain_path = tmp_path / "plain.jsonl"
        wrapped_path = tmp_path / "wrapped.jsonl"
        plain.dataset.to_jsonl(plain_path)
        wrapped.dataset.to_jsonl(wrapped_path)
        assert plain_path.read_bytes() == wrapped_path.read_bytes()

        # identical request accounting and zero resilience activity: the
        # wrappers consumed no randomness and changed no behaviour
        assert wrapped.api.stats == plain.api.stats
        assert wrapped.api.stats.retries == 0
        assert wrapped.api.stats.faults_injected == 0
        assert wrapped.api.stats.backoff_minutes == 0.0


class TestChaosSurvival:
    def test_every_campaign_record_present(self, chaos_artifacts):
        dataset = chaos_artifacts.dataset
        expected = [spec.campaign_id for spec in StudyConfig.small().specs]
        assert dataset.campaign_ids() == expected
        for campaign_id in expected:
            record = dataset.campaign(campaign_id)
            assert record.monitored_days > 0 or record.inactive

    def test_dataset_complete_and_consistent(self, chaos_artifacts):
        dataset = chaos_artifacts.dataset
        assert dataset.total_likes > 0
        assert len(dataset.likers) > 0
        assert len(dataset.baseline) > 0
        # every observed liker has a record, partial or complete
        for record in dataset.campaigns.values():
            for user_id in record.liker_ids:
                assert user_id in dataset.likers

    def test_injected_failures_visible_in_stats(self, chaos_artifacts):
        stats = chaos_artifacts.api.stats
        assert stats.faults_injected > 0
        assert stats.transient_errors > 0
        assert stats.rate_limited > 0
        assert stats.retries > 0
        assert stats.backoff_minutes > 0

    def test_partial_records_marked_not_dropped(self, chaos_artifacts):
        from repro.analysis.summary import crawl_health

        health = crawl_health(chaos_artifacts.dataset)
        assert health.n_likers == len(chaos_artifacts.dataset.likers)
        assert health.n_complete + health.n_partial == health.n_likers
        for liker in chaos_artifacts.dataset.likers.values():
            if liker.crawl_status == "partial":
                assert liker.failed_fields
            else:
                assert liker.failed_fields == []

    def test_analysis_layer_tolerates_partial_records(self, chaos_artifacts):
        from repro.analysis.demographics import table2
        from repro.analysis.likes import like_count_summary
        from repro.analysis.social import provider_social_stats
        from repro.analysis.summary import table1

        dataset = chaos_artifacts.dataset
        assert len(table1(dataset)) == len(dataset.campaigns)
        assert table2(dataset)  # demographics are exact under faults
        assert provider_social_stats(dataset)
        rows = like_count_summary(dataset)
        assert rows
        # partial likers' artifact zeros are excluded from the medians
        for row in rows:
            assert row.stats.median >= 0

    def test_roundtrip_preserves_crawl_status(self, chaos_artifacts, tmp_path):
        from repro.honeypot.storage import HoneypotDataset

        path = tmp_path / "chaos.jsonl"
        chaos_artifacts.dataset.to_jsonl(path)
        loaded = HoneypotDataset.from_jsonl(path)
        original = chaos_artifacts.dataset
        assert {u: l.crawl_status for u, l in loaded.likers.items()} == {
            u: l.crawl_status for u, l in original.likers.items()
        }

    def test_chaos_is_deterministic(self):
        first = HoneypotStudy(StudyConfig.chaos(seed=99)).run()
        second = HoneypotStudy(StudyConfig.chaos(seed=99)).run()
        assert first.api.stats == second.api.stats
        assert first.dataset.total_likes == second.dataset.total_likes
        assert set(first.dataset.likers) == set(second.dataset.likers)

    def test_chaos_export_and_accounting_are_pinned(self, chaos_artifacts, tmp_path):
        path = tmp_path / "chaos.jsonl"
        chaos_artifacts.dataset.to_jsonl(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHAOS_GOLDEN
        assert chaos_artifacts.api.stats.as_dict() == CHAOS_STATS
