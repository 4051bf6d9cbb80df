"""Tests for repro.analysis.stats."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import (
    cdf_at,
    empirical_cdf,
    gini_coefficient,
    jaccard,
    kl_divergence_bits,
    max_count_in_window,
    percentile,
    summary_stats,
)
from repro.util.validation import ValidationError


class TestKlDivergence:
    def test_identical_distributions_zero(self):
        p = {"a": 0.5, "b": 0.5}
        assert kl_divergence_bits(p, p) == pytest.approx(0.0, abs=1e-6)

    def test_known_value(self):
        # D({0.75, 0.25} || {0.5, 0.5}) = 0.75*log2(1.5) + 0.25*log2(0.5)
        expected = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
        value = kl_divergence_bits({"a": 0.75, "b": 0.25}, {"a": 0.5, "b": 0.5})
        assert value == pytest.approx(expected, abs=1e-4)

    def test_asymmetric(self):
        p = {"a": 0.9, "b": 0.1}
        q = {"a": 0.5, "b": 0.5}
        assert kl_divergence_bits(p, q) != pytest.approx(kl_divergence_bits(q, p))

    def test_zero_mass_smoothed(self):
        value = kl_divergence_bits({"a": 1.0, "b": 0.0}, {"a": 0.5, "b": 0.5})
        assert math.isfinite(value)
        assert value > 0

    def test_missing_keys_treated_as_zero(self):
        value = kl_divergence_bits({"a": 1.0}, {"a": 0.5, "b": 0.5})
        assert math.isfinite(value)

    def test_paper_magnitude_fb_ind(self):
        """The FB-IND row of Table 2 should land near the published 1.12 bits."""
        fb_ind = {"13-17": 52.7, "18-24": 43.5, "25-34": 2.3,
                  "35-44": 0.7, "45-54": 0.5, "55+": 0.3}
        facebook = {"13-17": 14.9, "18-24": 32.3, "25-34": 26.6,
                    "35-44": 13.2, "45-54": 7.2, "55+": 5.9}
        value = kl_divergence_bits(fb_ind, facebook)
        assert 0.8 <= value <= 1.3

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.floats(min_value=0.01, max_value=1.0),
                           min_size=2, max_size=6))
    def test_property_non_negative(self, p):
        q = {k: 1.0 for k in p}
        assert kl_divergence_bits(p, q) >= -1e-9


class TestJaccard:
    def test_disjoint(self):
        assert jaccard({1, 2}, {3, 4}) == 0.0

    def test_identical(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_partial(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 0.0

    def test_one_side_empty(self):
        # Regression pin for zero-liker campaigns: an empty-side pair is a
        # well-defined 0.0, never an error or a dropped matrix entry.
        assert jaccard(set(), {1, 2}) == 0.0
        assert jaccard({1, 2}, set()) == 0.0

    @given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
    def test_property_bounded_and_symmetric(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)


class TestEmpiricalCdf:
    def test_basic(self):
        xs, ys = empirical_cdf([3, 1, 2])
        assert xs == [1, 2, 3]
        assert ys == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        assert empirical_cdf([]) == ([], [])

    def test_cdf_at(self):
        values = [10, 20, 30, 40]
        assert cdf_at(values, 25) == 0.5
        assert cdf_at(values, 5) == 0.0
        assert cdf_at(values, 100) == 1.0
        assert cdf_at([], 1) == 0.0


class TestSummaryStats:
    def test_basic(self):
        stats = summary_stats([1, 2, 3, 4, 5])
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.median == 3.0

    def test_empty(self):
        stats = summary_stats([])
        assert stats.count == 0
        assert stats.mean == 0.0


def _bits(value):
    return struct.pack("<d", value)


def _assert_median_is_numpys(values):
    with np.errstate(all="ignore"):
        want = float(np.median(np.asarray(values, dtype=float)))
        got = summary_stats(values).median
    assert _bits(got) == _bits(want), (values, got, want)


#: Floats NumPy orders awkwardly: signed zeros, infinities, NaNs (a
#: negative one included) and ties.
_awkward = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan, -math.nan, 1e308]
)


class TestMedianIsNumpys:
    """``summary_stats``' median is ``np.median``'s, bit for bit."""

    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [5.0, 1.0, 3.0], [4.0, 1.0, 3.0, 2.0],
        [1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 1.0, 2.0, 2.0],
        [0.0, -0.0], [-0.0, 0.0, -0.0], [1.0, math.nan, 3.0],
        [math.nan], [math.inf, -math.inf], [1e308, 1e308], [7, 3, 5, 1],
    ])
    def test_cases(self, values):
        _assert_median_is_numpys(values)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats() | _awkward, min_size=1, max_size=40))
    def test_any_sample(self, values):
        _assert_median_is_numpys(values)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    def test_ties(self, values):
        _assert_median_is_numpys(values)


class TestMaxCountInWindow:
    def test_all_in_one_window(self):
        assert max_count_in_window([0, 10, 20], window=60) == 3

    def test_spread(self):
        assert max_count_in_window([0, 100, 200], window=60) == 1

    def test_sliding(self):
        # Half-open windows: [0, 100) holds 0 and 50 only; 100 starts the
        # next window.
        assert max_count_in_window([0, 50, 100, 150], window=100) == 2

    def test_unsorted_input(self):
        assert max_count_in_window([200, 0, 100, 50], window=100) == 2

    def test_boundary_exactly_window_apart(self):
        # Two events exactly `window` apart never share a half-open window.
        assert max_count_in_window([0, 100], window=100) == 1
        assert max_count_in_window([0, 99], window=100) == 2

    def test_daily_series_in_daily_window(self):
        # A strictly daily trickle counts one event per one-day window —
        # the inclusive bug counted two at every boundary.
        day = 1440
        assert max_count_in_window([0, day, 2 * day, 3 * day], window=day) == 1

    def test_empty(self):
        assert max_count_in_window([], window=60) == 0

    def test_invalid_window(self):
        with pytest.raises(ValidationError):
            max_count_in_window([1], window=0)


class TestPercentileAndGini:
    def test_percentile(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValidationError):
            percentile([], 50)

    def test_gini_equal_distribution(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated(self):
        assert gini_coefficient([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_gini_all_zero(self):
        assert gini_coefficient([0, 0]) == 0.0

    def test_gini_negative_rejected(self):
        with pytest.raises(ValidationError):
            gini_coefficient([-1, 2])
