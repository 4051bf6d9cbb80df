"""Tests for repro.core (paperdata, results, experiment)."""

import pytest

from repro.core import paperdata
from repro.core.experiment import HoneypotExperiment
from repro.core.results import ExperimentResults
from repro.honeypot.study import StudyConfig


class TestPaperData:
    def test_table1_covers_thirteen_campaigns(self):
        assert len(paperdata.TABLE1_LIKES) == 13
        assert len(paperdata.TABLE1_TERMINATED) == 13

    def test_table1_totals_consistent(self):
        total = sum(v for v in paperdata.TABLE1_LIKES.values() if v)
        assert total == paperdata.TABLE1_TOTAL

    def test_table2_gender_shares_sum_to_100(self):
        for campaign_id, (female, male) in paperdata.TABLE2_GENDER.items():
            assert female + male in (99, 100, 101), campaign_id  # paper rounding

    def test_table2_age_rows_sum_to_100(self):
        for campaign_id, ages in paperdata.TABLE2_AGE.items():
            assert sum(ages) == pytest.approx(100.0, abs=1.0), campaign_id

    def test_table3_providers(self):
        assert set(paperdata.TABLE3) == {
            "Facebook.com", "BoostLikes.com", "SocialFormula.com",
            "AuthenticLikes.com", "MammothSocials.com", "ALMS",
        }

    def test_burst_trickle_partition(self):
        overlap = set(paperdata.BURST_CAMPAIGNS) & set(paperdata.TRICKLE_CAMPAIGNS)
        assert not overlap


class TestExperimentResults:
    def test_tables_cached(self, small_results):
        assert small_results.table1 is small_results.table1
        assert small_results.figure5 is small_results.figure5

    def test_temporal_cached(self, small_results):
        a = small_results.temporal("SF-ALL")
        b = small_results.temporal("SF-ALL")
        assert a is b

    def test_all_shape_checks_pass(self, small_results):
        failing = [c for c in small_results.shape_checks() if not c.passed]
        assert not failing, failing

    def test_shape_check_details_informative(self, small_results):
        for check in small_results.shape_checks():
            assert check.name
            assert check.detail

    def test_passed_all(self, small_results):
        assert small_results.passed_all()

    def test_sharded_execution_skips_operator_overlap(self, small_results):
        # Shard isolation means AL/MS can never share a clickworker pool,
        # so the overlap check is skipped (not failed) for sharded datasets.
        sharded = ExperimentResults(
            dataset=small_results.dataset, sharded_execution=True
        )
        names = {c.name for c in sharded.shape_checks()}
        assert "al-ms-share-likers" not in names
        full = {c.name for c in small_results.shape_checks()}
        assert full - names == {"al-ms-share-likers"}


class TestHoneypotExperiment:
    def test_artifacts_before_run_rejected(self):
        experiment = HoneypotExperiment(StudyConfig.small())
        with pytest.raises(RuntimeError):
            _ = experiment.artifacts

    def test_run_returns_results(self, small_experiment):
        assert isinstance(
            ExperimentResults(dataset=small_experiment.artifacts.dataset),
            ExperimentResults,
        )

    def test_factories(self):
        assert HoneypotExperiment.small().config.scale == pytest.approx(0.1)
        assert HoneypotExperiment.paper_scale().config.scale == pytest.approx(1.0)
