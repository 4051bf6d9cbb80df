"""Integration tests: whole-study invariants and paper-shape assertions."""

import numpy as np
import pytest

from repro.analysis.demographics import country_distribution
from repro.analysis.likes import baseline_like_counts, campaign_like_counts
from repro.analysis.social import provider_social_stats
from repro.core import paperdata
from repro.honeypot.campaignspec import paper_campaigns


class TestScaledTable1:
    def test_like_counts_track_paper_at_scale(self, small_dataset):
        """At scale 0.1 every campaign should land near paper_likes / 10."""
        specs = {s.campaign_id: s for s in paper_campaigns()}
        for campaign_id, record in small_dataset.campaigns.items():
            expected = specs[campaign_id].paper_likes
            if expected is None:
                assert record.total_likes == 0
                continue
            scaled = expected * 0.1
            assert 0.4 * scaled <= record.total_likes <= 1.9 * scaled, campaign_id

    def test_farm_orders_exact_at_fulfillment(self, small_dataset):
        """Farm deliveries are deterministic in count (fulfillment preset)."""
        for campaign_id in ("SF-ALL", "SF-USA", "AL-ALL", "AL-USA", "MS-USA", "BL-USA"):
            record = small_dataset.campaign(campaign_id)
            expected = paperdata.TABLE1_LIKES[campaign_id] * 0.1
            assert abs(record.total_likes - expected) <= 2, campaign_id


class TestCrossCutting:
    def test_dataset_never_contains_ground_truth_fields(self, small_dataset):
        liker = next(iter(small_dataset.likers.values()))
        assert not hasattr(liker, "cohort")
        assert not hasattr(liker, "is_fake")

    def test_private_lists_have_no_friend_data(self, small_dataset):
        for liker in small_dataset.likers.values():
            if not liker.friend_list_public:
                assert liker.declared_friend_count is None
                assert liker.visible_friend_ids.tolist() == []

    def test_friend_medians_ordering_matches_table3(self, small_dataset):
        """Paper Table 3 median friends: BL 850 > AL 343 > SF 155 > MS 68."""
        rows = {r.provider: r for r in provider_social_stats(small_dataset)}
        bl = rows["BoostLikes.com"].friend_count.median
        al = rows["AuthenticLikes.com"].friend_count.median
        sf = rows["SocialFormula.com"].friend_count.median
        assert bl > al > sf

    def test_like_median_gap_vs_baseline(self, small_dataset):
        baseline_median = float(np.median(baseline_like_counts(small_dataset)))
        farm_median = float(np.median(campaign_like_counts(small_dataset, "SF-ALL")))
        assert farm_median > 15 * baseline_median

    def test_geolocation_shapes(self, small_dataset):
        # FB targeted campaigns: >= 87% from target country (paper 4.1)
        for campaign_id, target in (
            ("FB-USA", "US"), ("FB-FRA", "FR"), ("FB-IND", "IN"), ("FB-EGY", "EG"),
        ):
            top, share = country_distribution(small_dataset, campaign_id).top_country()
            assert top == target, campaign_id
            assert share >= paperdata.FB_TARGETED_SHARE_MIN - 0.1, campaign_id


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        from repro.core.experiment import HoneypotExperiment
        from repro.honeypot.study import StudyConfig

        def run(seed):
            config = StudyConfig.small(seed=seed)
            # shrink further for speed: determinism only needs identity
            config.population.n_users = 300
            experiment = HoneypotExperiment(config)
            dataset = experiment.run().dataset
            return (
                {c: r.total_likes for c, r in dataset.campaigns.items()},
                sorted(dataset.likers),
                [r.declared_like_count for r in dataset.baseline[:50]],
            )

        assert run(99) == run(99)

    def test_different_seed_differs(self):
        from repro.core.experiment import HoneypotExperiment
        from repro.honeypot.study import StudyConfig

        def totals(seed):
            config = StudyConfig.small(seed=seed)
            config.population.n_users = 300
            experiment = HoneypotExperiment(config)
            dataset = experiment.run().dataset
            return sorted(dataset.likers)

        assert totals(101) != totals(102)
