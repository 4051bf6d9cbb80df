"""The ad-delivery engine.

Turns a campaign's budget into scheduled click events on the simulation
engine.  Each day the pacing optimiser splits the daily budget across the
targeting's eligible markets (chasing cheap plentiful clicks, see
:class:`repro.ads.costmodel.CostModel`), draws a Poisson number of clicks per
market, spreads them over a diurnal curve, and resolves each click to either
a click worker or an organic user who may then like the page.

Conversion rates are asymmetric by design: the honeypot pages say "this is
not a real page, so please do not like it", so ordinary users mostly don't —
but click workers like indiscriminately.  This is the mechanism behind the
paper's observation that even legitimate ad campaigns garner suspicious
likes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.ads.campaign import AdCampaign
from repro.ads.clickworkers import ClickWorkerPopulation
from repro.ads.costmodel import CostModel, CountryMarket
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.osn.columns import sorted_unique
from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.osn.profile import AGE_BRACKETS, COHORT_CLICKWORKER
from repro.sim.engine import EventEngine
from repro.util.distributions import Categorical
from repro.util.rng import RngStream
from repro.util.timeutil import DAY, HOUR
from repro.util.validation import check_fraction, require

#: Ad-click propensity by age bracket for *organic* users.  Calibrated so
#: the FB-USA / FB-FRA liker age mix skews as young as paper Table 2 shows.
ORGANIC_CLICK_AGE_WEIGHTS = {
    "13-17": 16.0,
    "18-24": 4.0,
    "25-34": 1.0,
    "35-44": 0.5,
    "45-54": 0.25,
    "55+": 0.4,
}

#: Relative ad traffic by hour of day (mild evening peak).
_DIURNAL_WEIGHTS = {hour: 1.0 + 0.6 * np.sin((hour - 14) / 24 * 2 * np.pi) for hour in range(24)}


@dataclass
class DeliveryConfig:
    """Click-to-like conversion behaviour.

    Attributes
    ----------
    clickworker_like_rate:
        Probability a click worker who clicked the ad likes the page.
    organic_like_rate:
        Probability an ordinary user does.  Kept very low: the honeypot
        explicitly asks users not to like it, and the paper concludes that
        "a vast majority of the garnered likes are fake" — even the USA and
        France campaigns' likers had page-like medians 20-30x the baseline.
    min_worker_pool:
        Minimum click-worker pool size per country (pools grow on demand).
    worker_pool_headroom:
        Pools are pre-sized to ``expected worker likes * headroom`` at launch.
        Headroom > 1 keeps repeat draws (a worker clicking twice) from
        throttling unique likers; smaller values increase cross-campaign
        liker overlap.
    """

    clickworker_like_rate: float = 0.42
    organic_like_rate: float = 0.02
    min_worker_pool: int = 60
    worker_pool_headroom: float = 3.0
    organic_age_weights: Categorical = field(
        default_factory=lambda: Categorical(ORGANIC_CLICK_AGE_WEIGHTS)
    )

    def __post_init__(self) -> None:
        check_fraction(self.clickworker_like_rate, "clickworker_like_rate")
        check_fraction(self.organic_like_rate, "organic_like_rate")
        require(self.min_worker_pool > 0, "min_worker_pool must be > 0")
        require(self.worker_pool_headroom >= 1.0, "worker_pool_headroom must be >= 1")


class AdDeliveryEngine:
    """Schedules and resolves ad clicks for any number of campaigns."""

    def __init__(
        self,
        network: SocialNetwork,
        cost_model: CostModel,
        clickworkers: ClickWorkerPopulation,
        rng: RngStream,
        config: DeliveryConfig = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._network = network
        self._cost_model = cost_model
        self._clickworkers = clickworkers
        self._rng = rng
        self.config = config if config is not None else DeliveryConfig()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._organic_by_country = self._index_organics()
        self._diurnal = Categorical(_DIURNAL_WEIGHTS)
        self._campaign_counter = 0

    def launch(self, campaign: AdCampaign, engine: EventEngine) -> None:
        """Schedule every click of ``campaign`` on the simulation engine."""
        self._campaign_counter += 1
        rng = self._rng.child(f"campaign/{self._campaign_counter}")
        shares = self._cost_model.budget_shares(campaign.targeting)
        self._presize_pools(campaign, shares)
        # One handler and one label per market serve every click there:
        # a click carries no state of its own but its time.
        markets = []
        for country, share in shares.items():
            market = self._cost_model.market(country)
            handler = self._click_handler(campaign, country, market, rng)
            expected_clicks = share * campaign.daily_budget / market.cpc
            markets.append((expected_clicks, handler, f"ad-click:{country}"))
        scheduled = 0
        for day in range(campaign.duration_days):
            day_start = campaign.start_time + day * DAY
            for expected_clicks, handler, label in markets:
                n_clicks = rng.poisson(expected_clicks)
                scheduled += n_clicks
                for _ in range(n_clicks):
                    time = day_start + self._sample_minute_of_day(rng)
                    engine.schedule(time, handler, label=label)
        self.metrics.inc("ads.campaigns_launched")
        self.metrics.inc("ads.clicks_scheduled", scheduled)
        self.metrics.trace_event(
            "ad_campaign_launched",
            time=campaign.start_time,
            page_id=int(campaign.page_id),
            clicks_scheduled=scheduled,
        )

    # -- internals ----------------------------------------------------------------

    def _presize_pools(self, campaign: AdCampaign, shares: Dict[str, float]) -> None:
        """Grow worker pools to match expected demand before clicks land.

        Without this, a small default pool saturates (every worker has
        already liked the page) and unique likes stall far below what the
        budget pays for.
        """
        targets: Dict[str, int] = {}
        for country, share in shares.items():
            market = self._cost_model.market(country)
            expected_clicks = share * campaign.total_budget / market.cpc
            expected_worker_likes = (
                expected_clicks
                * market.clickworker_share
                * self.config.clickworker_like_rate
            )
            target = int(np.ceil(expected_worker_likes * self.config.worker_pool_headroom))
            if target >= 1:
                targets[country] = max(target, 1)
        self._clickworkers.ensure_pools(targets)

    def _click_handler(
        self, campaign: AdCampaign, country: str, market: CountryMarket, rng: RngStream
    ):
        """The handler for every click of ``campaign`` in ``country``.

        It draws nothing when built, and reads the clicker's termination
        and cohort from the profile columns, not from a profile view.
        """
        metrics = self.metrics
        profiles = self._network.profiles
        cpc = market.cpc
        spend_microusd = round(cpc * 1_000_000)

        def handle(time: int) -> None:
            if campaign.spend + cpc > campaign.total_budget:
                metrics.inc("ads.clicks_budget_capped")
                return  # daily pacing already bounds spend; this is the hard cap
            campaign.record_click(cpc)
            metrics.inc("ads.clicks")
            metrics.inc("ads.spend_microusd", spend_microusd)
            clicker = self._pick_clicker(country, market.clickworker_share, rng)
            if clicker is None:
                return
            if profiles.is_terminated(clicker):
                return
            clickworker = profiles.cohort_code_of(COHORT_CLICKWORKER)
            like_rate = (
                self.config.clickworker_like_rate
                if profiles.cohort_code(clicker) == clickworker
                else self.config.organic_like_rate
            )
            if rng.bernoulli(like_rate):
                if self._network.like_page(clicker, campaign.page_id, time):
                    campaign.record_like(clicker)
                    metrics.inc("ads.likes")

        return handle

    def _pick_clicker(self, country: str, worker_share: float, rng: RngStream) -> UserId:
        if rng.bernoulli(worker_share):
            return self._clickworkers.sample_worker(
                country, rng, min_pool=self.config.min_worker_pool
            )
        return self._pick_organic(country, rng)

    def _pick_organic(self, country: str, rng: RngStream) -> UserId:
        candidates = self._organic_by_country.get(country)
        if not candidates:
            # No organic inventory in this country: the click still happened
            # (billed) but came from an out-of-world user who cannot like.
            return None
        users, cdf = candidates
        # Generator.choice(len(users), p=weights) inverts this same cdf
        # with one uniform; the cached cdf skips its per-call cumsum.
        return users[int(cdf.searchsorted(rng.generator.random(), side="right"))]

    def _index_organics(self) -> Dict[str, tuple]:
        """Per-country organic users and the CDF of their click propensity.

        Columnar: organic rows come from one cohort-code comparison, each
        user's age bracket from the store's bracket column, and the
        bracket probability from a six-entry lookup table — no per-user
        view objects.  User lists keep creation (row) order, exactly as
        the old per-profile iteration produced them.  The CDF is built
        as ``Generator.choice`` builds it from the normalised weights.
        """
        profiles = self._network.profiles
        indexed: Dict[str, tuple] = {}
        organic_code = profiles.cohort_code_of("organic")
        if organic_code is None:
            return indexed
        rows = np.flatnonzero(profiles.cohort_codes() == organic_code)
        if rows.shape[0] == 0:
            return indexed
        age_weights = self.config.organic_age_weights
        bracket_probs = np.array(
            [age_weights.probability(bracket) for bracket in AGE_BRACKETS],
            dtype=float,
        )
        raw_all = bracket_probs[profiles.age_bracket_indices()[rows]]
        country_codes = profiles.country_codes()[rows]
        user_ids = profiles.user_ids()[rows]
        for code in sorted_unique(country_codes):
            mask = country_codes == code
            raw = raw_all[mask]
            total = raw.sum()
            if total <= 0:
                continue
            cdf = (raw / total).cumsum()
            cdf /= cdf[-1]
            indexed[profiles.strings.value(int(code))] = (user_ids[mask].tolist(), cdf)
        return indexed

    def _sample_minute_of_day(self, rng: RngStream) -> int:
        hour = self._diurnal.sample(rng)
        return int(hour) * HOUR + rng.randint(0, HOUR)
