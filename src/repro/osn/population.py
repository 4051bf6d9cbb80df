"""Organic-world generation.

Builds the background population the honeypot study sits inside: ordinary
users with 2014-Facebook-like demographics, a Zipf-popular page universe, an
organic friendship graph, and organic page-liking behaviour (median ~34
liked pages, matching the paper's baseline sample and [16]).

Farm accounts and click workers are *not* created here — they are produced
by :mod:`repro.farms.accounts` and :mod:`repro.ads.clickworkers`, which layer
on top of this world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.osn.network import SocialNetwork
from repro.osn.page import CATEGORY_NORMAL, CATEGORY_SPAM_JOB
from repro.osn.profile import AGE_BRACKETS, Gender
from repro.osn.universe import ORGANIC_MIX, PageUniverse, build_universe
from repro.util.distributions import Categorical, LogNormalCount
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive, require

#: Global Facebook gender split (paper Table 2, last row): 46 % F / 54 % M.
GLOBAL_GENDER_WEIGHTS = {Gender.FEMALE: 46.0, Gender.MALE: 54.0}

#: Global Facebook age-bracket distribution (paper Table 2, last row).
GLOBAL_AGE_WEIGHTS = {
    "13-17": 14.9,
    "18-24": 32.3,
    "25-34": 26.6,
    "35-44": 13.2,
    "45-54": 7.2,
    "55+": 5.9,
}

#: Approximate 2014 country shares of the Facebook population.  Only the six
#: buckets the paper plots (US/IN/EG/TR/FR + Other) need to be faithful.
GLOBAL_COUNTRY_WEIGHTS = {
    "US": 14.0,
    "IN": 9.0,
    "BR": 7.0,
    "ID": 6.0,
    "MX": 4.5,
    "GB": 3.0,
    "TR": 3.0,
    "PH": 3.0,
    "FR": 2.2,
    "EG": 1.6,
    "OTHER": 46.7,
}

_AGE_BRACKET_RANGES = {
    "13-17": (13, 17),
    "18-24": (18, 24),
    "25-34": (25, 34),
    "35-44": (35, 44),
    "45-54": (45, 54),
    "55+": (55, 75),
}


def _bracket_bounds(bracket: str) -> tuple:
    """``randint`` bounds for an age bracket (validated)."""
    require(bracket in _AGE_BRACKET_RANGES, f"unknown age bracket {bracket!r}")
    low, high = _AGE_BRACKET_RANGES[bracket]
    return low, high + 1


def sample_age(rng: RngStream, bracket_dist: Categorical) -> int:
    """Draw an integer age: bracket from ``bracket_dist``, uniform inside it."""
    bracket = bracket_dist.sample(rng)
    return rng.randint(*_bracket_bounds(bracket))


def create_hubs(
    network: SocialNetwork,
    rng: RngStream,
    count: int,
    male_share: float,
    ages: Categorical,
    *,
    country: str,
    cohort: str,
) -> List[int]:
    """Create ``count`` private, unsearchable hub accounts in one append.

    Hub by hub, each draws its gender and then its age, as a
    ``create_user`` loop would; returns the new ids in creation order.
    """
    genders: List[bool] = []
    hub_ages: List[int] = []
    for _ in range(count):
        genders.append(rng.bernoulli(male_share))
        hub_ages.append(sample_age(rng, ages))
    return network.create_users_bulk(
        count,
        gender_codes=genders,
        ages=hub_ages,
        countries=[country] * count,
        friend_list_public=False,
        searchable=False,
        cohort=cohort,
    )


def sample_ages(rng: RngStream, bracket_dist: Categorical, n: int) -> np.ndarray:
    """Draw ``n`` ages: brackets in one vectorised draw, uniform inside each.

    The in-bracket ages come from one ``integers`` call over arrays of
    bounds, which draws each element as a scalar ``integers(low, high)``
    would: the values and the generator state match a per-age loop.
    """
    brackets = bracket_dist.sample_many(rng, n)
    bounds = np.array(
        [_bracket_bounds(bracket) for bracket in brackets], dtype=np.int64
    ).reshape(n, 2)
    return rng.generator.integers(bounds[:, 0], bounds[:, 1])


@dataclass(slots=True)
class DemographicProfile:
    """A reusable demographic recipe (gender, age, country distributions)."""

    gender: Categorical = field(
        default_factory=lambda: Categorical(GLOBAL_GENDER_WEIGHTS)
    )
    age: Categorical = field(default_factory=lambda: Categorical(GLOBAL_AGE_WEIGHTS))
    country: Categorical = field(
        default_factory=lambda: Categorical(GLOBAL_COUNTRY_WEIGHTS)
    )

    @staticmethod
    def global_facebook() -> "DemographicProfile":
        """The global-population recipe from the paper's Table 2 bottom row."""
        return DemographicProfile()

    def global_age_pmf(self) -> Dict[str, float]:
        """Age pmf in bracket order (used as KL reference)."""
        pmf = self.age.as_dict()
        return {bracket: pmf.get(bracket, 0.0) for bracket in AGE_BRACKETS}


@dataclass(slots=True)
class PopulationConfig:
    """Sizing and behaviour of the organic world.

    Attributes
    ----------
    n_users:
        Number of organic accounts.
    n_normal_pages / n_spam_pages:
        Page-universe sizes.  Spam-job pages are the other "customers" of
        the like-fraud ecosystem; organic users almost never like them.
    like_count:
        Per-user total page-like distribution (paper baseline median ~34).
    friend_count:
        Per-user friendship degree target.
    friend_list_public_rate:
        Fraction of organic users whose friend list a crawler can read.
    spam_like_rate:
        Probability an organic user likes any spam-job pages at all (noise).
    """

    n_users: int = 4000
    n_normal_pages: int = 1500
    n_spam_pages: int = 400
    like_count: LogNormalCount = field(
        default_factory=lambda: LogNormalCount(median=34, sigma=1.1, minimum=1)
    )
    friend_count: LogNormalCount = field(
        default_factory=lambda: LogNormalCount(median=130, sigma=0.8, minimum=1, maximum=4000)
    )
    friend_list_public_rate: float = 0.45
    spam_like_rate: float = 0.02
    page_popularity_exponent: float = 0.9
    demographics: DemographicProfile = field(
        default_factory=DemographicProfile.global_facebook
    )

    def __post_init__(self) -> None:
        check_positive(self.n_users, "n_users")
        check_positive(self.n_normal_pages, "n_normal_pages")
        check_positive(self.n_spam_pages, "n_spam_pages")
        check_fraction(self.friend_list_public_rate, "friend_list_public_rate")
        check_fraction(self.spam_like_rate, "spam_like_rate")
        check_positive(self.page_popularity_exponent, "page_popularity_exponent")

    @staticmethod
    def small() -> "PopulationConfig":
        """A fast configuration for unit tests."""
        return PopulationConfig(n_users=300, n_normal_pages=150, n_spam_pages=40)


@dataclass(slots=True)
class BuiltWorld:
    """Handles to what :class:`WorldBuilder` created."""

    organic_user_ids: List[int]
    normal_page_ids: List[int]
    spam_page_ids: List[int]
    universe: PageUniverse


class WorldBuilder:
    """Populates a :class:`SocialNetwork` with the organic world."""

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config

    def build(self, network: SocialNetwork, rng: RngStream) -> BuiltWorld:
        """Create pages, organic users, friendships, and organic likes."""
        normal_pages = self._create_pages(network, CATEGORY_NORMAL, self.config.n_normal_pages)
        spam_pages = self._create_pages(network, CATEGORY_SPAM_JOB, self.config.n_spam_pages)
        country_weights = self.config.demographics.country.as_dict()
        universe = build_universe(
            page_ids=normal_pages,
            spam_page_ids=spam_pages,
            countries=list(country_weights.keys()),
            country_weights=list(country_weights.values()),
            rng=rng.child("universe"),
            popularity_exponent=self.config.page_popularity_exponent,
        )

        user_ids, countries = self._create_users(network, rng.child("users"))
        self._wire_friendships(network, user_ids, rng.child("friendships"))
        self._assign_likes(network, user_ids, countries, universe, rng.child("likes"))
        return BuiltWorld(
            organic_user_ids=user_ids,
            normal_page_ids=normal_pages,
            spam_page_ids=spam_pages,
            universe=universe,
        )

    # -- internals ----------------------------------------------------------------

    def _create_pages(self, network: SocialNetwork, category: str, count: int) -> List[int]:
        return [
            network.create_page(name=f"{category}-page-{i}", category=category).page_id
            for i in range(count)
        ]

    def _create_users(self, network: SocialNetwork, rng: RngStream):
        """Create the organic cohort in one columnar append.

        Demographic draws keep the exact scalar order (genders, ages,
        countries, visibility) so seeded runs are byte-identical to the
        old per-user ``create_user`` loop; only the container writes are
        batched.  Returns ``(user_ids, countries)`` — the sampled country
        list rides along so the like-assignment pass doesn't re-read it
        from the store one view at a time.
        """
        demo = self.config.demographics
        n = self.config.n_users
        genders = demo.gender.sample_many(rng, n)
        ages = sample_ages(rng, demo.age, n)
        countries = demo.country.sample_many(rng, n)
        public = rng.generator.random(n) < self.config.friend_list_public_rate
        gender_codes = np.fromiter(
            (g is Gender.MALE for g in genders), dtype=np.int8, count=n
        )
        user_ids = network.create_users_bulk(
            n,
            gender_codes=gender_codes,
            ages=ages,
            countries=countries,
            friend_list_public=public,
            searchable=True,
            cohort="organic",
        )
        return list(user_ids), countries

    def _wire_friendships(
        self, network: SocialNetwork, user_ids: List[int], rng: RngStream
    ) -> None:
        """Configuration-model wiring: pair up degree 'stubs' at random.

        Fully vectorised: stub expansion, shuffling, and pairing are array
        ops, and the resulting edge list lands through
        :meth:`SocialNetwork.add_friendships_arrays`.  The shuffle consumes a
        single permutation draw, exactly as the scalar version did.
        """
        degrees = np.asarray(self.config.friend_count.sample_many(rng, len(user_ids)))
        # cap each user's stub count so tiny test worlds stay sparse
        degrees = np.minimum(degrees, len(user_ids) - 1)
        stubs = np.repeat(np.asarray(user_ids, dtype=np.int64), degrees)
        stubs = stubs[rng.generator.permutation(len(stubs))]
        paired = (len(stubs) // 2) * 2
        a = stubs[0:paired:2]
        b = stubs[1:paired:2]
        keep = a != b
        network.add_friendships_arrays(a[keep], b[keep])

    def _assign_likes(
        self,
        network: SocialNetwork,
        user_ids: List[int],
        countries: List[str],
        universe: PageUniverse,
        rng: RngStream,
    ) -> None:
        """Assign each organic user's liked-page set.

        Per-user RNG draws (spam-noise bernoulli/size/selection) stay
        scalar and in the original order; the page sets themselves arrive
        as one column from :meth:`PageUniverse.sample_likes_many`, each
        noisy user's spam pages are spliced in after that user's picks,
        and the cohort lands in one
        :meth:`SocialNetwork.like_pages_fresh_many` append — segments are
        sampled without replacement and organic users draw no spam
        in-mix, so every page in a batch is guaranteed new.
        """
        spam_pages = universe.spam_pages
        like_counts = self.config.like_count.sample_many(rng, len(user_ids))
        pages, counts = universe.sample_likes_many(
            rng, like_counts, ORGANIC_MIX, countries
        )
        spam_like_rate = self.config.spam_like_rate
        noisy: List[int] = []
        extras: List[int] = []
        for i in range(len(user_ids)):
            if spam_pages and rng.bernoulli(spam_like_rate):
                noise = rng.randint(1, min(4, len(spam_pages)) + 1)
                extras.extend(rng.sample_without_replacement(spam_pages, noise))
                noisy.extend([i] * noise)
        if noisy:
            # insert before the next user's first page, in draw order
            pages = np.insert(pages, np.cumsum(counts)[noisy], extras)
            counts += np.bincount(noisy, minlength=counts.shape[0])
        network.like_pages_fresh_many(user_ids, pages, counts, time=0)
