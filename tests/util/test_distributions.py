"""Tests for repro.util.distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.distributions import (
    Categorical,
    LogNormalCount,
    interpolate_counts,
    split_into_groups,
    weighted_sample_positive,
    zipf_weights,
)
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


class TestCategorical:
    def test_normalisation(self):
        dist = Categorical({"a": 3, "b": 1})
        assert dist.probability("a") == pytest.approx(0.75)
        assert dist.probability("b") == pytest.approx(0.25)

    def test_unknown_label_zero(self):
        assert Categorical({"a": 1}).probability("zzz") == 0.0

    def test_sampling_frequencies(self, rng):
        dist = Categorical({"a": 9, "b": 1})
        draws = dist.sample_many(rng, 5000)
        share_a = draws.count("a") / len(draws)
        assert 0.85 < share_a < 0.95

    def test_sample_many_zero(self, rng):
        assert Categorical({"a": 1}).sample_many(rng, 0) == []

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Categorical({})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            Categorical({"a": -1, "b": 2})

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            Categorical({"a": 0})

    def test_rescaled(self):
        # as_dict() normalises to {a: 0.5, b: 0.5}; the override replaces
        # a's weight with 3, so P(a) = 3 / 3.5.
        dist = Categorical({"a": 1, "b": 1}).rescaled({"a": 3})
        assert dist.probability("a") == pytest.approx(3 / 3.5)

    def test_as_dict_sums_to_one(self):
        pmf = Categorical({"x": 2, "y": 5, "z": 3}).as_dict()
        assert sum(pmf.values()) == pytest.approx(1.0)

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(min_value=0.01, max_value=100),
                           min_size=1, max_size=8))
    def test_property_pmf_normalised(self, weights):
        pmf = Categorical(weights).as_dict()
        assert sum(pmf.values()) == pytest.approx(1.0)


class TestLogNormalCount:
    def test_median_close_to_target(self, rng):
        dist = LogNormalCount(median=100, sigma=0.8)
        draws = dist.sample_many(rng, 20000)
        assert 90 <= float(np.median(draws)) <= 110

    def test_bounds_respected(self, rng):
        dist = LogNormalCount(median=10, sigma=2.0, minimum=5, maximum=20)
        draws = dist.sample_many(rng, 1000)
        assert all(5 <= d <= 20 for d in draws)

    def test_single_sample_int(self, rng):
        assert isinstance(LogNormalCount(median=34, sigma=1.0).sample(rng), int)

    def test_invalid_median(self):
        with pytest.raises(ValidationError):
            LogNormalCount(median=0, sigma=1.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValidationError):
            LogNormalCount(median=10, sigma=1.0, minimum=20, maximum=10)


class TestZipfWeights:
    def test_normalised(self):
        assert zipf_weights(10).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, exponent=1.2)
        assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))

    def test_single_rank(self):
        assert zipf_weights(1)[0] == pytest.approx(1.0)

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            zipf_weights(0)


class TestWeightedSampleWithoutReplacement:
    """`weighted_sample_positive`, the page universe's weighted draw."""

    def test_distinct_results(self, rng):
        items = np.arange(100)
        weights = zipf_weights(100)
        out = weighted_sample_positive(rng, items, weights, 30)
        assert len(out) == len(set(out.tolist())) == 30

    def test_zero_k(self, rng):
        out = weighted_sample_positive(rng, np.array([1, 2]), np.array([1.0, 1.0]), 0)
        assert out.tolist() == [] and out.dtype == np.int64

    def test_heavy_weight_preferred(self, rng):
        items = np.array(["heavy", "light"])
        weights = np.array([100.0, 0.001])
        hits = sum(
            weighted_sample_positive(rng, items, weights, 1)[0] == "heavy"
            for _ in range(200)
        )
        assert hits > 190

    def test_whole_population_short_circuit(self, rng):
        items = np.arange(40)
        weights = zipf_weights(40)
        out = weighted_sample_positive(rng, items, weights, 40)
        assert out.tolist() == items.tolist()  # population order, no key sort
        assert not np.shares_memory(out, items)

    def test_whole_population_preserves_stream_alignment(self):
        # The short-circuit must consume exactly as many uniforms as the
        # weighted path would, so draws after it are unaffected.
        items = np.arange(25)
        weights = zipf_weights(25)
        sampled = RngStream(123, "sampled")
        weighted_sample_positive(sampled, items, weights, 25)
        burned = RngStream(123, "burned")
        burned.generator.random(25)
        assert sampled.random() == burned.random()


class TestInterpolateCounts:
    def test_sums_to_total(self):
        parts = interpolate_counts(100, [0.5, 0.3, 0.2])
        assert sum(parts) == 100

    def test_proportions(self):
        parts = interpolate_counts(1000, [1, 1, 2])
        assert parts == [250, 250, 500]

    def test_zero_total(self):
        assert interpolate_counts(0, [1, 2]) == [0, 0]

    def test_unnormalised_fractions(self):
        assert sum(interpolate_counts(7, [10, 20, 30])) == 7

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10)
        .filter(lambda fs: sum(fs) > 0.01),
    )
    @settings(max_examples=100)
    def test_property_exact_total(self, total, fractions):
        parts = interpolate_counts(total, fractions)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)


class TestSplitIntoGroups:
    def test_partition_complete(self, rng):
        items = list(range(23))
        groups = split_into_groups(rng, items, sizes=(2, 3))
        flattened = [x for group in groups for x in group]
        assert sorted(flattened) == items

    def test_group_sizes(self, rng):
        groups = split_into_groups(rng, list(range(40)), sizes=(2, 3))
        # all groups except possibly the last have an allowed size
        for group in groups[:-1]:
            assert len(group) in (2, 3)

    def test_empty_input(self, rng):
        assert split_into_groups(rng, []) == []

    def test_invalid_sizes(self, rng):
        import pytest
        with pytest.raises(ValidationError):
            split_into_groups(rng, [1, 2], sizes=(0,))
