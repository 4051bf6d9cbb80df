"""The click-worker population.

The paper's strongest ad-side finding is that even *legitimate* Facebook
campaigns attracted profiles that behave nothing like typical users: likers
liked a median of 600-1000 pages (baseline: ~34), skewed heavily young and
male, and their liked-page sets overlapped with like-farm users'.  The
accepted explanation (which the paper cites and our simulation adopts) is a
population of professional click workers — real or well-masked accounts that
click on ads and like pages indiscriminately, concentrated in cheap ad
markets.

This module generates per-country pools of such accounts.  Pools are lazy
and persistent: the same workers serve every campaign that reaches their
country, which is what produces the liker overlap between the FB-IND,
FB-EGY, and FB-ALL campaigns (paper Figure 5b) and the page-set overlap with
farm accounts (both populations like the same spam-job and popular pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.osn.population import create_hubs, sample_ages
from repro.osn.profile import COHORT_CLICKWORKER
from repro.osn.universe import CLICKWORKER_MIX, LikeMix, PageUniverse
from repro.util.distributions import Categorical, LogNormalCount
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive, require

#: Click workers skew very young (paper Table 2: FB-IND 52.7 % aged 13-17).
CLICKWORKER_AGE_WEIGHTS = {
    "13-17": 50.0,
    "18-24": 44.0,
    "25-34": 4.0,
    "35-44": 1.0,
    "45-54": 0.5,
    "55+": 0.5,
}

#: Male share of click workers by country (paper Table 2: FB-IND 93 % male).
CLICKWORKER_MALE_SHARE = {
    "IN": 0.95,
    "EG": 0.85,
    "TR": 0.65,
    "ID": 0.80,
    "PH": 0.70,
}
DEFAULT_MALE_SHARE = 0.50


@dataclass
class ClickWorkerConfig:
    """Behavioural parameters of the click-worker population.

    Attributes
    ----------
    page_like_count:
        Total pages a worker likes (paper: FB-campaign likers' medians were
        600-1000).
    background_friends:
        Declared friends outside the simulated world (paper Table 3: FB
        likers had ~198 median friends).
    friend_list_public_rate:
        Paper Table 3: only 18 % of FB-campaign likers had public lists.
    like_mix:
        How a worker's explicit likes split across the page universe's
        global/regional/spam segments (the spam share is what overlaps with
        farm accounts in Figure 5a).
    explicit_like_cap:
        At most this many of a worker's likes are recorded against the
        simulated page universe; the remainder becomes the profile's
        background like count.  Keeps big like totals affordable in small
        worlds while preserving set-overlap structure.
    hub_ring_size / hub_coverage:
        Workers are organised in rings that share a manager ("hub") account;
        hubs create the sparse mutual-friend (2-hop) links between FB-campaign
        likers seen in paper Table 3 / Figure 3b.
    direct_edge_rate:
        Expected direct worker-worker friendships per worker (paper saw only
        6 direct edges among 1448 FB likers).
    """

    page_like_count: LogNormalCount = field(
        default_factory=lambda: LogNormalCount(median=800, sigma=0.65, minimum=20)
    )
    background_friends: LogNormalCount = field(
        default_factory=lambda: LogNormalCount(median=190, sigma=0.9, minimum=5, maximum=4500)
    )
    friend_list_public_rate: float = 0.16
    like_mix: LikeMix = CLICKWORKER_MIX
    explicit_like_cap: int = 120
    hub_ring_size: int = 6
    hub_coverage: float = 0.30
    direct_edge_rate: float = 0.004
    age: Categorical = field(default_factory=lambda: Categorical(CLICKWORKER_AGE_WEIGHTS))

    def __post_init__(self) -> None:
        check_fraction(self.friend_list_public_rate, "friend_list_public_rate")
        check_positive(self.explicit_like_cap, "explicit_like_cap")
        check_fraction(self.hub_coverage, "hub_coverage")
        check_positive(self.hub_ring_size, "hub_ring_size")
        require(self.direct_edge_rate >= 0, "direct_edge_rate must be >= 0")


class ClickWorkerPopulation:
    """Lazily-built per-country pools of click-worker accounts."""

    def __init__(
        self,
        network: SocialNetwork,
        universe: PageUniverse,
        rng: RngStream,
        config: ClickWorkerConfig = None,
    ) -> None:
        self._network = network
        self._universe = universe
        self._rng = rng
        self.config = config if config is not None else ClickWorkerConfig()
        self._pools: Dict[str, List[UserId]] = {}

    def pool(self, country: str) -> List[UserId]:
        """The current pool for ``country`` (possibly empty)."""
        return list(self._pools.get(country, ()))

    def ensure_pool(self, country: str, size: int) -> List[UserId]:
        """Grow the ``country`` pool to at least ``size`` workers; return it."""
        check_positive(size, "size")
        pool = self._pools.setdefault(country, [])
        if len(pool) < size:
            new_workers = self._create_workers(country, size - len(pool))
            self._wire_hubs(country, new_workers)
            pool.extend(new_workers)
        return list(pool)

    def ensure_pools(self, targets: Dict[str, int]) -> None:
        """Grow several country pools in one call (batch of :meth:`ensure_pool`).

        Countries are processed in the dict's iteration order so the per-pool
        child RNG streams match the equivalent sequence of scalar calls.
        """
        for country, size in targets.items():
            self.ensure_pool(country, size)

    def sample_worker(self, country: str, rng: RngStream, min_pool: int = 50) -> UserId:
        """Draw a worker from the country pool, growing it lazily.

        Sampling is with replacement across calls: the same worker serves
        many jobs, so likers recur across campaigns.  When the pool is
        already big enough the draw reads it in place — no
        :meth:`ensure_pool` bookkeeping or defensive copy per click.  The
        draw only depends on the pool's length, so the fast path consumes
        the stream identically.
        """
        pool = self._pools.get(country)
        if pool is None or len(pool) < min_pool:
            self.ensure_pool(country, min_pool)
            pool = self._pools[country]
        return rng.choice(pool)

    # -- internals ----------------------------------------------------------------

    def _create_workers(self, country: str, count: int) -> List[UserId]:
        cfg = self.config
        rng = self._rng.child(f"workers/{country}/{len(self._pools.get(country, []))}")
        male_share = CLICKWORKER_MALE_SHARE.get(country, DEFAULT_MALE_SHARE)
        male = rng.generator.random(count) < male_share
        ages = sample_ages(rng, cfg.age, count)
        public = rng.generator.random(count) < cfg.friend_list_public_rate
        backgrounds = cfg.background_friends.sample_many(rng, count)
        # Same draws, columnar writes: one batched append for the whole
        # pool growth instead of a create_user call per worker.  The male
        # mask doubles as the gender-code column (True == MALE == 1).
        workers = self._network.create_users_bulk(
            count,
            gender_codes=male,
            ages=ages,
            countries=[country] * count,
            friend_list_public=public,
            searchable=False,
            cohort=COHORT_CLICKWORKER,
        )
        self._network.profiles.set_background_friend_counts(workers, backgrounds)
        self._assign_page_likes(workers, country, rng)
        self._wire_direct_edges(workers, rng)
        return workers

    def _assign_page_likes(
        self, workers: List[UserId], country: str, rng: RngStream
    ) -> None:
        cfg = self.config
        totals = cfg.page_like_count.sample_many(rng, len(workers))
        explicit = [min(total, cfg.explicit_like_cap) for total in totals]
        pages, counts = self._universe.sample_likes_many(
            rng, explicit, cfg.like_mix, [country] * len(workers), spam_key="clickworker"
        )
        network = self._network
        # Freshly created workers have no prior likes and each sampled set
        # is drawn without replacement from disjoint segments, so the
        # no-dedup fresh path applies.
        network.like_pages_fresh_many(workers, pages, counts, time=0)
        if workers:
            network.profiles.set_background_like_counts(
                workers, np.asarray(totals, dtype=np.int64) - counts
            )

    def _wire_hubs(self, country: str, workers: List[UserId]) -> None:
        cfg = self.config
        rng = self._rng.child(f"hubs/{country}/{len(workers)}")
        hit = rng.bernoulli_many(cfg.hub_coverage, len(workers)).tolist()
        ring_members = [w for w, member in zip(workers, hit) if member]
        rings = [
            ring_members[i : i + cfg.hub_ring_size]
            for i in range(0, len(ring_members), cfg.hub_ring_size)
        ]
        rings = [ring for ring in rings if len(ring) >= 2]
        hubs = create_hubs(
            self._network, rng, len(rings),
            CLICKWORKER_MALE_SHARE.get(country, DEFAULT_MALE_SHARE), cfg.age,
            country=country, cohort=COHORT_CLICKWORKER,
        )
        self._network.add_friendships_arrays(
            [hub for hub, ring in zip(hubs, rings) for _ in ring],
            [worker for ring in rings for worker in ring],
        )

    def _wire_direct_edges(self, workers: List[UserId], rng: RngStream) -> None:
        if len(workers) < 2:
            return
        expected_edges = self.config.direct_edge_rate * len(workers)
        pairs = [
            rng.sample_without_replacement(workers, 2)
            for _ in range(rng.poisson(expected_edges))
        ]
        self._network.add_friendships_arrays(
            [a for a, _ in pairs], [b for _, b in pairs]
        )
