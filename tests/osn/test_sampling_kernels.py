"""Pins for the NumPy behaviour the world build's cohort kernels rest on.

``PageUniverse.sample_likes_many`` stacks the samples that take as many
pages from one segment and selects them with one
``argpartition(-take, axis=1)``; ``sample_ages`` draws every in-bracket
age with one ``integers`` call over arrays of bounds; farm accounts draw
their countries with one ``Categorical.sample_many``.  Each is bit-
identical to the per-sample call it replaced only because NumPy
computes a row, an element or a label exactly as the scalar call does.
NumPy does not promise that across releases, so these tests pin it on
the version ``constraints.txt`` installs.  The scratch class pins the
sampler's tracemalloc peak on two paper-sized cohorts.
"""

import tracemalloc

import numpy as np
import pytest

from repro.osn.population import (
    GLOBAL_COUNTRY_WEIGHTS,
    DemographicProfile,
    PopulationConfig,
    _bracket_bounds,
    sample_ages,
)
from repro.osn.universe import (
    CLICKWORKER_MIX,
    ORGANIC_MIX,
    _DRAW_CHUNK,
    _windows,
    build_universe,
)
from repro.util.distributions import Categorical
from repro.util.rng import RngStream

PINNED = (
    f"on NumPy {np.__version__}; constraints.txt pins the version these "
    "kernels were checked on, and a different one may compute it differently"
)


# -- stacked argpartition ---------------------------------------------------------


def assert_rows_match_1d(rows, take):
    stacked = rows.argpartition(-take, axis=1)
    for i, row in enumerate(rows):
        expected = row.argpartition(-take)
        assert np.array_equal(stacked[i], expected), (
            f"row {i} of {rows.shape} (take {take}) differs from the 1-D "
            f"argpartition {PINNED}"
        )


class TestStackedArgpartition:
    """``argpartition(-k, axis=1)`` returns each row's 1-D result, in order."""

    @pytest.mark.parametrize(
        "rows,n,take",
        [(40, 2, 1), (60, 17, 5), (30, 95, 36), (25, 450, 54), (12, 490, 489), (3, 45_000, 300)],
    )
    def test_random_keys(self, rows, n, take):
        generator = RngStream(rows * n + take, "random keys").generator
        keys = np.log(generator.random((rows, n)))
        assert_rows_match_1d(keys, take)

    @pytest.mark.parametrize("n,take", [(20, 7), (450, 54), (45_000, 1_000)])
    def test_tied_keys(self, n, take):
        generator = RngStream(n + take, "tied keys").generator
        # one decimal leaves a handful of distinct values per row
        keys = np.round(np.log(generator.random((30, n))), 1)
        assert_rows_match_1d(keys, take)

    @pytest.mark.parametrize(
        "n,take,starts",
        [
            (95, 36, [0, 750, 1500, 4_501, 9_000]),
            (450, 54, [300 + 750 * i for i in range(300)]),
            (45_000, 900, [0, 45_000, 100_001]),
        ],
    )
    def test_gathered_and_weighted_rows(self, n, take, starts):
        # the production shape: windows of one log-uniform block gathered
        # by fancy index, divided by broadcast Zipf weights, against the
        # 1-D call on each slice divided the same way
        generator = RngStream(n, "block").generator
        block = np.log(generator.random(starts[-1] + n))
        weights = 1.0 / np.arange(1, n + 1) ** 0.9
        rows = _windows(block, n)[starts]
        rows /= weights
        stacked = rows.argpartition(-take, axis=1)[:, -take:]
        for i, start in enumerate(starts):
            expected = (block[start : start + n] / weights).argpartition(-take)[-take:]
            assert np.array_equal(stacked[i], expected), (
                f"gathered row at {start} (n {n}, take {take}) differs {PINNED}"
            )


# -- vector draws ------------------------------------------------------------------


class TestVectorDraws:
    def test_integers_over_bound_arrays_matches_scalar_loop(self):
        bounds = [_bracket_bounds(b) for b in ["13-17", "55+", "18-24", "25-34", "45-54"]]
        low = np.array([lo for lo, _ in bounds * 41])
        high = np.array([hi for _, hi in bounds * 41])
        # 205 draws: an odd count leaves half a 64-bit output buffered
        vector = RngStream(9, "ages")
        scalar = RngStream(9, "ages")
        got = vector.generator.integers(low, high)
        expected = [scalar.randint(lo, hi) for lo, hi in zip(low.tolist(), high.tolist())]
        assert got.tolist() == expected, f"in-bracket ages differ {PINNED}"
        assert (
            vector.generator.bit_generator.state == scalar.generator.bit_generator.state
        ), f"generator state after the ages differs {PINNED}"
        assert vector.random() == scalar.random(), f"the next uniform differs {PINNED}"

    def test_sample_ages_matches_scalar_loop(self):
        ages = Categorical({"13-17": 5, "18-24": 4, "25-34": 2, "55+": 1})
        vector = RngStream(11, "ages")
        scalar = RngStream(11, "ages")
        got = sample_ages(vector, ages, 333)
        brackets = ages.sample_many(scalar, 333)
        expected = [scalar.randint(*_bracket_bounds(b)) for b in brackets]
        assert got.tolist() == expected, f"sample_ages differs {PINNED}"
        assert (
            vector.generator.bit_generator.state == scalar.generator.bit_generator.state
        ), f"generator state after sample_ages differs {PINNED}"

    def test_categorical_sample_many_matches_sample(self):
        countries = Categorical(GLOBAL_COUNTRY_WEIGHTS)
        vector = RngStream(13, "countries")
        scalar = RngStream(13, "countries")
        got = countries.sample_many(vector, 501)
        expected = [countries.sample(scalar) for _ in range(501)]
        assert got == expected, f"Categorical.sample_many differs {PINNED}"
        assert (
            vector.generator.bit_generator.state == scalar.generator.bit_generator.state
        ), f"generator state after the countries differs {PINNED}"


# -- scratch memory ----------------------------------------------------------------


def paper_universe():
    """The paper world's page universe: 1,500 normal and 400 spam pages."""
    return build_universe(
        page_ids=range(9_000_000, 9_001_500),
        spam_page_ids=range(9_001_500, 9_001_900),
        countries=list(GLOBAL_COUNTRY_WEIGHTS),
        country_weights=list(GLOBAL_COUNTRY_WEIGHTS.values()),
        rng=RngStream(20140312, "universe"),
        popularity_exponent=0.9,
    )


def sampler_scratch(universe, totals, mix, countries, spam_key):
    """The sampler's tracemalloc peak less the two arrays it returns."""
    tracemalloc.start()
    try:
        pages, counts = universe.sample_likes_many(
            RngStream(5, "likes"), totals, mix, countries, spam_key=spam_key
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - pages.nbytes - counts.nbytes


def cohort_draws(universe, totals, mix, countries, spam_key):
    return sum(
        weights.shape[0]
        for total, country in zip(totals, countries)
        for _, _, weights, _ in universe._plan(total, mix, country, spam_key)
    )


#: Four times the 2 MB uniform block: the block, one group's gathered keys,
#: its argpartition indices and its picks.  More means a group spans blocks.
SCRATCH_LIMIT = 4 * _DRAW_CHUNK * 8


class TestSamplerScratch:
    def test_organic_cohort(self):
        universe = paper_universe()
        rng = RngStream(20140312, "organic")
        totals = PopulationConfig().like_count.sample_many(rng, 4_000)
        countries = DemographicProfile().country.sample_many(rng, 4_000)
        assert cohort_draws(universe, totals, ORGANIC_MIX, countries, None) > 2_500_000
        scratch = sampler_scratch(universe, totals, ORGANIC_MIX, countries, None)
        assert scratch <= SCRATCH_LIMIT

    def test_clickworker_cohort_at_the_cap(self):
        universe = paper_universe()
        totals = [120] * 2_327
        countries = ["IN"] * 2_327
        assert (
            cohort_draws(universe, totals, CLICKWORKER_MIX, countries, "clickworker")
            > 1_700_000
        )
        scratch = sampler_scratch(
            universe, totals, CLICKWORKER_MIX, countries, "clickworker"
        )
        assert scratch <= SCRATCH_LIMIT
