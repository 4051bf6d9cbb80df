"""Tests for repro.analysis.likes and repro.analysis.similarity."""

import pytest

from repro.analysis.likes import (
    baseline_like_counts,
    campaign_like_counts,
    like_count_cdfs,
    like_count_summary,
)
from repro.analysis.similarity import (
    campaign_liker_sets,
    campaign_page_sets,
    jaccard_matrices,
)
from repro.analysis.stats import jaccard


class TestLikeCounts:
    def test_baseline_near_paper_median(self, small_dataset):
        import numpy as np
        counts = baseline_like_counts(small_dataset)
        assert 20 <= float(np.median(counts)) <= 50  # paper: 34

    def test_farm_likers_heavy(self, small_dataset):
        import numpy as np
        for campaign_id in ("SF-ALL", "AL-USA"):
            counts = campaign_like_counts(small_dataset, campaign_id)
            assert float(np.median(counts)) > 800

    def test_boostlikes_exception(self, small_dataset):
        import numpy as np
        counts = campaign_like_counts(small_dataset, "BL-USA")
        assert float(np.median(counts)) < 250  # paper: 63

    def test_summary_ratios(self, small_dataset):
        rows = {r.campaign_id: r for r in like_count_summary(small_dataset)}
        assert rows["SF-ALL"].median_ratio > 10
        assert rows["BL-USA"].median_ratio < 10
        assert "BL-ALL" not in rows  # inactive

    def test_cdfs_cover_campaigns_and_baseline(self, small_dataset):
        curves = like_count_cdfs(small_dataset)
        assert "Facebook" in curves
        assert "SF-ALL" in curves
        xs, ys = curves["SF-ALL"]
        assert ys[-1] == pytest.approx(1.0)
        assert xs == sorted(xs)


class TestSimilarity:
    def test_matrix_shape_and_diagonal(self, small_dataset):
        matrices = jaccard_matrices(small_dataset)
        n = len(matrices.campaign_ids)
        assert n == 13
        for i in range(n):
            cid = matrices.campaign_ids[i]
            expected = 100.0 if small_dataset.campaign(cid).total_likes else 0.0
            assert matrices.user_similarity[i][i] == pytest.approx(expected)

    def test_symmetry(self, small_dataset):
        matrices = jaccard_matrices(small_dataset)
        n = len(matrices.campaign_ids)
        for i in range(n):
            for j in range(n):
                assert matrices.page_similarity[i][j] == pytest.approx(
                    matrices.page_similarity[j][i]
                )

    def test_sf_campaigns_share_users(self, small_dataset):
        matrices = jaccard_matrices(small_dataset)
        assert matrices.user_value("SF-ALL", "SF-USA") > 0

    def test_al_ms_share_users(self, small_dataset):
        matrices = jaccard_matrices(small_dataset)
        assert matrices.user_value("AL-USA", "MS-USA") > 5

    def test_fb_block_page_similarity(self, small_dataset):
        """FB-IND / FB-EGY / FB-ALL cluster in page-set similarity."""
        matrices = jaccard_matrices(small_dataset)
        within = min(
            matrices.page_value("FB-IND", "FB-EGY"),
            matrices.page_value("FB-IND", "FB-ALL"),
            matrices.page_value("FB-EGY", "FB-ALL"),
        )
        across = max(
            matrices.page_value("FB-IND", "AL-USA"),
            matrices.page_value("FB-EGY", "MS-USA"),
        )
        assert within > across

    def test_fb_farm_overlap_noticeable(self, small_dataset):
        """The paper's 'noticeable overlap' between ads and farm page sets."""
        matrices = jaccard_matrices(small_dataset)
        assert matrices.page_value("FB-IND", "SF-ALL") > 20

    def test_inactive_campaigns_zero_rows(self, small_dataset):
        matrices = jaccard_matrices(small_dataset)
        assert matrices.page_value("BL-ALL", "FB-IND") == 0.0
        assert matrices.user_value("MS-ALL", "MS-USA") == 0.0

    def test_matrices_equal_the_set_jaccard(self, small_dataset):
        """The array Jaccard gives exactly the floats of the set reference."""
        matrices = jaccard_matrices(small_dataset)
        ids = small_dataset.campaign_ids()
        pages = {
            c: {p for liker in small_dataset.likers_of(c) for p in liker.liked_page_ids.tolist()}
            for c in ids
        }
        likers = {c: set(small_dataset.campaign(c).liker_ids) for c in ids}
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert matrices.page_similarity[i][j] == 100.0 * jaccard(pages[a], pages[b])
                assert matrices.user_similarity[i][j] == 100.0 * jaccard(likers[a], likers[b])

    def test_page_sets_exclude_nothing(self, small_dataset):
        page_sets = campaign_page_sets(small_dataset)
        liker_sets = campaign_liker_sets(small_dataset)
        for campaign_id in small_dataset.campaign_ids():
            record = small_dataset.campaign(campaign_id)
            assert len(liker_sets[campaign_id]) == len(set(record.liker_ids))
            if record.total_likes:
                assert len(page_sets[campaign_id]) > 0
