"""The four like-farm services, calibrated to the paper.

Every knob here traces to a measured quantity:

* Demographics per brand — paper Table 2 rows (gender split, age brackets).
* Declared friend medians — paper Table 3 (BoostLikes 850, AuthenticLikes
  343, SocialFormula 155, MammothSocials 68).
* Friend-list privacy — paper Table 3 (public-list percentages).
* Page-like medians — paper Section 4.4 (farm likers 1200-1800, except
  BoostLikes-USA at 63).
* Delivery dynamics — paper Figure 2b (bursts inside 2-hour windows for
  SF/AL/MS; AuthenticLikes' 700 likes within 4 hours on day 2; BoostLikes'
  smooth 15-day trickle).
* Topology — paper Figure 3 / Table 3 (pairs & triplets vs one dense
  community, plus mutual-friend density).
* Targeting compliance — paper Figure 1 (SocialFormula shipped Turkish
  profiles regardless of the USA order).
* Order outcomes — paper Table 1 (BL-ALL and MS-ALL paid but never
  delivered; the rest under- or over-shot the 1000-like package).
* Shared operator — AuthenticLikes and MammothSocials run on one account
  pool (paper Section 4.3 finding 3 and the ALMS group).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.farms.accounts import FakeAccountFactory, FarmAccountConfig
from repro.farms.base import (
    REGION_USA,
    REGION_WORLDWIDE,
    FarmOrder,
    OrderStatus,
)
from repro.farms.operator import FarmOperator
from repro.farms.scheduler import burst_schedule, trickle_schedule
from repro.farms.topology import (
    DenseCommunityTopology,
    FarmTopology,
    HubTopology,
    PairTripletTopology,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.osn.ids import PageId
from repro.osn.network import SocialNetwork
from repro.osn.universe import STEALTH_FARM_MIX
from repro.sim.engine import EventEngine
from repro.util.distributions import Categorical, LogNormalCount
from repro.util.rng import RngStream
from repro.util.timeutil import DAY, HOUR
from repro.util.validation import require

#: Canonical brand names.
BOOSTLIKES = "BoostLikes.com"
SOCIALFORMULA = "SocialFormula.com"
AUTHENTICLIKES = "AuthenticLikes.com"
MAMMOTHSOCIALS = "MammothSocials.com"

#: Advertised price per 1000 likes (paper Table 1).
PRICE_LIST: Dict[Tuple[str, str], float] = {
    (BOOSTLIKES, REGION_WORLDWIDE): 70.00,
    (BOOSTLIKES, REGION_USA): 190.00,
    (SOCIALFORMULA, REGION_WORLDWIDE): 14.99,
    (SOCIALFORMULA, REGION_USA): 69.99,
    (AUTHENTICLIKES, REGION_WORLDWIDE): 49.95,
    (AUTHENTICLIKES, REGION_USA): 59.95,
    (MAMMOTHSOCIALS, REGION_WORLDWIDE): 20.00,
    (MAMMOTHSOCIALS, REGION_USA): 95.00,
}


@dataclass(slots=True)
class DeliveryStrategy:
    """How a brand paces an order's likes.

    ``kind`` is ``burst`` or ``trickle``; the remaining fields parameterise
    the corresponding scheduler.
    """

    kind: str
    spread_days: float = 3.0
    n_bursts: int = 4
    burst_width: int = 2 * HOUR
    first_burst_delay: int = 4 * HOUR
    duration_days: float = 15.0

    def __post_init__(self) -> None:
        require(self.kind in ("burst", "trickle"), f"unknown strategy {self.kind!r}")

    def plan(self, accounts, start: int, rng: RngStream, window_days: float = None):
        """Build the delivery plan for ``accounts`` starting at ``start``.

        ``window_days`` is the order's promised delivery window; the farm
        never schedules likes beyond it (an honest farm's one constraint).
        """
        if self.kind == "burst":
            spread = self.spread_days
            if window_days is not None:
                spread = min(spread, window_days)
            return burst_schedule(
                accounts,
                start,
                rng,
                spread_days=spread,
                n_bursts=self.n_bursts,
                burst_width=self.burst_width,
                first_burst_delay=min(
                    self.first_burst_delay,
                    max(HOUR, int(spread * DAY) - self.burst_width),
                ),
            )
        duration = self.duration_days if window_days is None else window_days
        return trickle_schedule(accounts, start, rng, duration_days=duration)


def _brand_slug(name: str) -> str:
    """A metric-key-safe brand label (``BoostLikes.com`` -> ``boostlikes``)."""
    return name.split(".")[0].lower()


class LikeFarmService:
    """One storefront: account recipe + topology + delivery strategy."""

    def __init__(
        self,
        name: str,
        operator: FarmOperator,
        network: SocialNetwork,
        account_config: FarmAccountConfig,
        topology: FarmTopology,
        strategy: DeliveryStrategy,
        rng: RngStream,
        inactive_regions: FrozenSet[str] = frozenset(),
        fulfillment_range: Tuple[float, float] = (0.6, 1.05),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        require(bool(name), "service name must be non-empty")
        require(
            0 < fulfillment_range[0] <= fulfillment_range[1],
            "fulfillment_range must be a positive (lo, hi) pair",
        )
        self.name = name
        self.operator = operator
        self._network = network
        self.account_config = account_config
        self.topology = topology
        self.strategy = strategy
        self._rng = rng
        self.inactive_regions = inactive_regions
        self.fulfillment_range = fulfillment_range
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.orders: list = []

    def price(self, region: str) -> float:
        """The advertised package price for ``region``."""
        return PRICE_LIST.get((self.name, region), 50.0)

    def place_order(
        self,
        page_id: PageId,
        region: str,
        target_likes: int,
        engine: EventEngine,
        placed_at: int = 0,
        promised_days: Optional[float] = None,
        fulfillment: Optional[float] = None,
    ) -> FarmOrder:
        """Buy ``target_likes`` for ``page_id``; schedules delivery events.

        ``fulfillment`` overrides the delivered fraction of the package
        (used by the paper preset to match Table 1 exactly); by default it is
        drawn from ``fulfillment_range``.  Orders to an inactive region are
        charged and never delivered, like BL-ALL and MS-ALL in the paper.
        """
        order = FarmOrder(
            farm_name=self.name,
            page_id=page_id,
            target_likes=target_likes,
            region=region,
            price=self.price(region),
            promised_days=promised_days
            if promised_days is not None
            else self.strategy.spread_days,
            placed_at=placed_at,
        )
        self.orders.append(order)
        brand = _brand_slug(self.name)
        if region in self.inactive_regions:
            order.status = OrderStatus.INACTIVE
            self.metrics.inc(f"farms.orders_inactive.{brand}")
            self.metrics.trace_event(
                "farm_order_inactive",
                time=placed_at,
                farm=self.name,
                page_id=int(page_id),
                region=region,
            )
            return order
        rng = self._rng.child(f"order/{len(self.orders)}")
        if fulfillment is None:
            fulfillment = rng.uniform(*self.fulfillment_range)
        require(fulfillment > 0, "fulfillment must be > 0")
        count = max(1, int(round(target_likes * fulfillment)))
        accounts = self.operator.accounts_for_order(
            farm_name=self.name,
            config=self.account_config,
            region=region,
            count=count,
            topology=self.topology,
            created_at=placed_at,
        )
        order.account_ids = list(accounts)
        plan = self.strategy.plan(
            accounts, placed_at, rng.child("plan"), window_days=order.promised_days
        )
        order.scheduled_likes = len(plan)
        order.status = OrderStatus.DELIVERING
        delivered_key = f"farms.likes_delivered.{brand}"
        label = f"farm-like:{self.name}"
        for time, account in plan:
            engine.schedule(
                max(time, placed_at),
                self._delivery_handler(order, account, delivered_key),
                label=label,
            )
        metrics = self.metrics
        metrics.inc(f"farms.orders_placed.{brand}")
        metrics.inc(f"farms.likes_scheduled.{brand}", len(plan))
        if plan:
            # Burst-timing shape of this brand's latest delivery plan, in
            # minutes after order placement (Figure 2b's burst-vs-trickle
            # signature, readable straight off the run manifest).
            first = min(max(time, placed_at) for time, _ in plan)
            last = max(max(time, placed_at) for time, _ in plan)
            metrics.set_gauge(f"farms.delivery.{brand}.first_like_minute", first - placed_at)
            metrics.set_gauge(f"farms.delivery.{brand}.last_like_minute", last - placed_at)
            metrics.set_gauge(f"farms.delivery.{brand}.span_minutes", last - first)
        metrics.trace_event(
            "farm_order_placed",
            time=placed_at,
            farm=self.name,
            page_id=int(page_id),
            region=region,
            scheduled_likes=len(plan),
        )
        return order

    def _delivery_handler(self, order: FarmOrder, account, delivered_key: str):
        """One account's like for ``order``; termination is a column read."""
        metrics = self.metrics
        network = self._network

        def deliver(time: int) -> None:
            if network.profiles.is_terminated(account):
                return
            if network.like_page(account, order.page_id, time):
                order.record_delivery()
                metrics.inc(delivered_key)

        return deliver


class FarmCatalog:
    """Builds the paper's four farm services over a shared world."""

    def __init__(
        self,
        network: SocialNetwork,
        factory: FakeAccountFactory,
        rng: RngStream,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._network = network
        self._factory = factory
        self._rng = rng
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.services: Dict[str, LikeFarmService] = {}
        self._build()

    def service(self, name: str) -> LikeFarmService:
        """Look up a storefront by canonical name."""
        return self.services[name]

    def _build(self) -> None:
        network, factory, rng = self._network, self._factory, self._rng

        # --- BoostLikes: the stealth farm -----------------------------------
        boostlikes_operator = FarmOperator(
            "boostlikes-op", network, factory, rng.child("op/bl"), reuse_fraction=0.10
        )
        self.services[BOOSTLIKES] = LikeFarmService(
            name=BOOSTLIKES,
            operator=boostlikes_operator,
            network=network,
            account_config=FarmAccountConfig(
                gender_female_share=0.53,
                age=Categorical(
                    {"13-17": 34.2, "18-24": 54.5, "25-34": 8.8,
                     "35-44": 1.5, "45-54": 0.7, "55+": 0.5}
                ),
                background_friends=LogNormalCount(median=850, sigma=0.75, minimum=50, maximum=5000),
                page_like_count=LogNormalCount(median=63, sigma=1.2, minimum=3),
                friend_list_public_rate=0.26,
                like_mix=STEALTH_FARM_MIX,
                spam_key="boostlikes",
            ),
            topology=FarmTopology(
                dense=DenseCommunityTopology(ring_k=4, rewire_probability=0.2),
                hubs=HubTopology(hub_size=40, memberships_per_account=2, coverage=0.95),
            ),
            strategy=DeliveryStrategy(kind="trickle", duration_days=15.0),
            rng=rng.child("svc/bl"),
            metrics=self.metrics,
            inactive_regions=frozenset({REGION_WORLDWIDE}),
        )

        # --- SocialFormula: Turkish burst farm, ignores targeting -----------
        socialformula_operator = FarmOperator(
            "socialformula-op",
            network,
            factory,
            rng.child("op/sf"),
            reuse_fraction=0.10,
            regional_pools=False,  # SF ignores targeting: one Turkish pool
        )
        self.services[SOCIALFORMULA] = LikeFarmService(
            name=SOCIALFORMULA,
            operator=socialformula_operator,
            network=network,
            account_config=FarmAccountConfig(
                gender_female_share=0.37,
                age=Categorical(
                    {"13-17": 19.8, "18-24": 33.3, "25-34": 21.0,
                     "35-44": 15.2, "45-54": 7.2, "55+": 3.5}
                ),
                honors_targeting=False,
                fixed_country="TR",
                background_friends=LogNormalCount(median=155, sigma=0.8, minimum=5, maximum=4000),
                page_like_count=LogNormalCount(median=1500, sigma=0.5, minimum=50),
                friend_list_public_rate=0.58,
                spam_key="socialformula",
            ),
            topology=FarmTopology(
                pairs=PairTripletTopology(grouped_fraction=0.08),
                hubs=HubTopology(hub_size=9, memberships_per_account=1, coverage=0.5),
            ),
            strategy=DeliveryStrategy(kind="burst", spread_days=3.0, n_bursts=4),
            rng=rng.child("svc/sf"),
            metrics=self.metrics,
        )

        # --- AuthenticLikes + MammothSocials: one operator, two storefronts -
        alms_operator = FarmOperator(
            "alms-op", network, factory, rng.child("op/alms"), reuse_fraction=0.67
        )
        self.services[AUTHENTICLIKES] = LikeFarmService(
            name=AUTHENTICLIKES,
            operator=alms_operator,
            network=network,
            account_config=FarmAccountConfig(
                gender_female_share=0.37,
                age=Categorical(
                    {"13-17": 11.5, "18-24": 46.9, "25-34": 24.2,
                     "35-44": 9.9, "45-54": 4.3, "55+": 2.9}
                ),
                background_friends=LogNormalCount(median=343, sigma=1.0, minimum=5, maximum=5000),
                page_like_count=LogNormalCount(median=1500, sigma=0.6, minimum=50),
                friend_list_public_rate=0.43,
                spam_key="alms",
            ),
            topology=FarmTopology(
                pairs=PairTripletTopology(grouped_fraction=0.10),
                hubs=HubTopology(hub_size=12, memberships_per_account=1, coverage=0.7),
            ),
            strategy=DeliveryStrategy(
                kind="burst",
                spread_days=2.0,
                n_bursts=2,
                burst_width=4 * HOUR,
                first_burst_delay=DAY,
            ),
            rng=rng.child("svc/al"),
            metrics=self.metrics,
        )
        self.services[MAMMOTHSOCIALS] = LikeFarmService(
            name=MAMMOTHSOCIALS,
            operator=alms_operator,  # the shared operator is the point
            network=network,
            account_config=FarmAccountConfig(
                gender_female_share=0.26,
                age=Categorical(
                    {"13-17": 8.6, "18-24": 46.9, "25-34": 34.5,
                     "35-44": 6.4, "45-54": 1.9, "55+": 1.4}
                ),
                background_friends=LogNormalCount(median=68, sigma=1.1, minimum=0, maximum=3000),
                page_like_count=LogNormalCount(median=1400, sigma=0.6, minimum=50),
                friend_list_public_rate=0.51,
                spam_key="alms",
            ),
            topology=FarmTopology(
                pairs=PairTripletTopology(grouped_fraction=0.08),
                hubs=HubTopology(hub_size=8, memberships_per_account=1, coverage=0.9),
            ),
            strategy=DeliveryStrategy(kind="burst", spread_days=3.0, n_bursts=2),
            rng=rng.child("svc/ms"),
            metrics=self.metrics,
            inactive_regions=frozenset({REGION_WORLDWIDE}),
        )
