"""Fake-account generation for like farms.

Each farm brand has its own account recipe — demographics, declared friend
counts, page-like volume, and friend-list privacy — calibrated against what
the paper measured for that farm's likers (Tables 2 and 3).  Accounts also
like a mix of spam-job pages (other customers of the fraud ecosystem) and
popular normal pages "to mimic real users", which is what creates the
page-set overlap across campaigns in the paper's Figure 5a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.farms.base import REGION_USA
from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.osn.population import GLOBAL_AGE_WEIGHTS, sample_ages
from repro.osn.profile import COHORT_FARM_PREFIX
from repro.osn.universe import FARM_MIX, LikeMix, PageUniverse
from repro.util.distributions import Categorical, LogNormalCount
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive, require

#: Country mix for worldwide farm orders (developing-market skew, some US).
DEFAULT_WORLDWIDE_COUNTRIES = {
    "US": 0.18,
    "IN": 0.22,
    "EG": 0.12,
    "TR": 0.08,
    "ID": 0.10,
    "PH": 0.08,
    "BR": 0.06,
    "OTHER": 0.16,
}

#: Country mix for USA-targeted orders from farms that honour targeting.
DEFAULT_USA_COUNTRIES = {"US": 0.93, "OTHER": 0.07}


@dataclass(slots=True)
class FarmAccountConfig:
    """Recipe for one brand's fake accounts.

    Attributes
    ----------
    gender_female_share:
        Fraction of accounts presenting as female (paper Table 2).
    age:
        Age-bracket distribution of accounts (paper Table 2 rows).
    honors_targeting:
        Whether USA orders get US profiles.  SocialFormula ignored targeting
        and delivered Turkish profiles regardless (paper Figure 1).
    fixed_country:
        If set, every account uses this country (SocialFormula -> ``TR``).
    background_friends:
        Declared friends outside the simulated world (paper Table 3 medians:
        BoostLikes 850, AuthenticLikes 343, SocialFormula 155, Mammoth 68).
    page_like_count:
        Total pages liked (paper Section 4.4: farm medians 1200-1800, except
        BoostLikes-USA at 63).
    friend_list_public_rate:
        Paper Table 3, "likers with public friend lists".
    like_mix / explicit_like_cap:
        How explicit likes split across the page universe's segments; see
        :class:`repro.ads.clickworkers.ClickWorkerConfig` for the
        explicit/background split rationale.
    """

    gender_female_share: float
    age: Categorical
    honors_targeting: bool = True
    fixed_country: Optional[str] = None
    usa_countries: Categorical = field(
        default_factory=lambda: Categorical(DEFAULT_USA_COUNTRIES)
    )
    worldwide_countries: Categorical = field(
        default_factory=lambda: Categorical(DEFAULT_WORLDWIDE_COUNTRIES)
    )
    background_friends: LogNormalCount = field(
        default_factory=lambda: LogNormalCount(median=150, sigma=0.8, minimum=0, maximum=5000)
    )
    page_like_count: LogNormalCount = field(
        default_factory=lambda: LogNormalCount(median=1500, sigma=0.5, minimum=10)
    )
    friend_list_public_rate: float = 0.5
    like_mix: LikeMix = FARM_MIX
    spam_key: Optional[str] = None
    explicit_like_cap: int = 120

    def __post_init__(self) -> None:
        check_fraction(self.gender_female_share, "gender_female_share")
        check_fraction(self.friend_list_public_rate, "friend_list_public_rate")
        check_positive(self.explicit_like_cap, "explicit_like_cap")

    def country_for_region(self, region: str, rng: RngStream, count: int) -> List[str]:
        """Which countries ``count`` new accounts claim, given the order's region.

        One ``sample_many`` draw: the same labels and stream position as
        ``count`` scalar ``sample`` calls.
        """
        if self.fixed_country is not None:
            return [self.fixed_country] * count
        if region == REGION_USA and self.honors_targeting:
            return self.usa_countries.sample_many(rng, count)
        return self.worldwide_countries.sample_many(rng, count)

    @staticmethod
    def near_global_age() -> Categorical:
        """An age distribution close to the global network's (low KL)."""
        return Categorical(GLOBAL_AGE_WEIGHTS)


class FakeAccountFactory:
    """Creates farm accounts and their page-like behaviour."""

    def __init__(self, network: SocialNetwork, universe: PageUniverse) -> None:
        self._network = network
        self._universe = universe

    def create_accounts(
        self,
        farm_name: str,
        config: FarmAccountConfig,
        region: str,
        count: int,
        rng: RngStream,
        created_at: int = 0,
    ) -> List[UserId]:
        """Create ``count`` accounts for ``farm_name`` serving ``region``."""
        require(count >= 0, "count must be >= 0")
        female = rng.generator.random(count) < config.gender_female_share
        ages = sample_ages(rng, config.age, count)
        countries = config.country_for_region(region, rng, count)
        public = rng.generator.random(count) < config.friend_list_public_rate
        backgrounds = config.background_friends.sample_many(rng, count)
        cohort = f"{COHORT_FARM_PREFIX}{farm_name}"
        # Columnar writes: the whole batch lands in one append.  Gender
        # code 0 == FEMALE, so the female mask inverts.
        accounts = self._network.create_users_bulk(
            count,
            gender_codes=~female,
            ages=ages,
            countries=countries,
            friend_list_public=public,
            searchable=False,
            cohort=cohort,
            created_at=created_at,
        )
        self._network.profiles.set_background_friend_counts(accounts, backgrounds)
        self._assign_page_likes(accounts, countries, config, rng)
        return accounts

    def _assign_page_likes(
        self,
        accounts: List[UserId],
        countries: List[str],
        config: FarmAccountConfig,
        rng: RngStream,
    ) -> None:
        totals = config.page_like_count.sample_many(rng, len(accounts))
        explicit = [min(total, config.explicit_like_cap) for total in totals]
        pages, counts = self._universe.sample_likes_many(
            rng, explicit, config.like_mix, countries, spam_key=config.spam_key
        )
        network = self._network
        # New accounts, segment-disjoint without-replacement samples: the
        # no-dedup fresh write path applies.
        network.like_pages_fresh_many(accounts, pages, counts, time=0)
        if accounts:
            network.profiles.set_background_like_counts(
                accounts, np.asarray(totals, dtype=np.int64) - counts
            )
