"""End-to-end orchestration of the honeypot study.

`HoneypotStudy` wires the whole reproduction together: build the organic
world, stand up the ad platform and the farm catalog, deploy one honeypot
page per campaign spec, launch all thirteen promotions simultaneously
(2014-03-12 in the paper, t=0 here), monitor every page until its quiet-week
stop, crawl the likers and the baseline sample, run the platform's
termination sweep a month later, and assemble the
:class:`repro.honeypot.storage.HoneypotDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import failpoints
from repro.ads.campaign import AdCampaign
from repro.ads.clickworkers import ClickWorkerConfig, ClickWorkerPopulation
from repro.ads.costmodel import CostModel
from repro.ads.delivery import AdDeliveryEngine, DeliveryConfig
from repro.ads.reports import ReportsTool
from repro.ckpt.manager import CheckpointConfig, CheckpointManager
from repro.farms.accounts import FakeAccountFactory
from repro.farms.base import FarmOrder
from repro.farms.catalog import FarmCatalog
from repro.honeypot.campaignspec import CampaignSpec, paper_campaigns
from repro.honeypot.crawler import ProfileCrawler
from repro.honeypot.monitor import MonitorPolicy, MonitorSnapshot, PageMonitor
from repro.honeypot.page import create_honeypot_page
from repro.honeypot.storage import (
    BaselineRecord,
    CampaignRecord,
    HoneypotDataset,
    LikeObservation,
    LikerRecord,
    record_fields,
)
from repro.obs.manifest import config_fingerprint
from repro.obs.metrics import MetricsRegistry, ObservabilityConfig
from repro.osn.api import PlatformAPI, ReadEndpoints, RequestStats
from repro.osn.faults import FaultProfile, FaultyPlatformAPI
from repro.osn.ids import PageId, UserId
from repro.osn.resilient import ResilientAPI, RetryPolicy
from repro.osn.network import SocialNetwork
from repro.osn.population import PopulationConfig, WorldBuilder
from repro.osn.termination import TerminationPolicy, TerminationSweep
from repro.sim.engine import EventEngine
from repro.util.rng import RngStream
from repro.util.timeutil import DAY, days
from repro.util.validation import check_positive, require


def default_termination_policy(scale: float = 1.0) -> TerminationPolicy:
    """The enforcement model calibrated to Table 1's termination column."""
    return TerminationPolicy(
        base_rates={
            "organic": 0.0005,
            "clickworker": 0.007,
            "farm:BoostLikes.com": 0.0016,
            "farm:SocialFormula.com": 0.008,
            "farm:AuthenticLikes.com": 0.018,
            "farm:MammothSocials.com": 0.020,
        },
        default_rate=0.001,
        burst_multiplier=1.6,
        burst_threshold=max(5, int(round(50 * scale))),
    )


@dataclass
class StudyConfig:
    """Configuration of a full honeypot study run.

    Attributes
    ----------
    seed:
        Root seed; the entire study is deterministic given it.
    scale:
        Scales budgets and farm package sizes (0.1 gives a ~10x smaller,
        faster study with the same shapes; 1.0 reproduces paper scale).
    population:
        Organic-world sizing.
    specs:
        Campaign specs; defaults to the paper's thirteen.
    baseline_sample_size:
        Paper used 2000 random directory users.
    termination_delay_days:
        The follow-up sweep ran "a month after the campaigns".
    horizon_days:
        Simulation end; must exceed campaign + quiet-stop windows.
    fault_profile:
        When set, the crawl surface is wrapped in the deterministic
        fault-injection + resilient-client stack (see
        :mod:`repro.osn.faults`); ``None`` crawls the raw API.  A profile
        with all rates zero is byte-identical to ``None``.
    retry_policy:
        Backoff/circuit-breaker parameters of the resilient client (only
        used when ``fault_profile`` is set).
    observability:
        Metrics/trace collection (see :mod:`repro.obs`).  Disabled by
        default: every subsystem then instruments against the shared
        no-op registry, which adds no measurable overhead.
    checkpoint:
        Crash-safe checkpointing (see :mod:`repro.ckpt`).  ``None`` (the
        default) runs without any durability machinery and is
        byte-identical to pre-checkpoint behaviour; a
        :class:`~repro.ckpt.manager.CheckpointConfig` journals every
        dataset record and snapshots study state at phase boundaries
        (plus every ``every_days`` simulated days), and with
        ``resume=True`` continues a killed run under the verified-replay
        contract.
    active_spec_ids:
        The sharded-execution knob (see :mod:`repro.shard`).  ``None``
        (the default) runs every campaign in ``specs``.  A list of
        campaign ids restricts the run to those campaigns *while still
        creating every spec's honeypot page* in spec order, so page-id
        assignment is identical across every shard of the same study —
        a liker record crawled in one shard references the same page
        ids as a record crawled in any other.
    collect_globals:
        Whether this run crawls the baseline sample and computes the
        global demographics report.  In a sharded study exactly one
        shard (the primary) collects them; the merge takes them from it.
    failpoints:
        Deterministic fault-injection spec (see :mod:`repro.failpoints`),
        e.g. ``"ckpt.journal.record=kill@25"``.  ``None`` (the default)
        arms nothing and adds no overhead.  Deliberately **excluded from
        the config fingerprint**: an injected run and its clean resume
        are the same study, and must agree on identity.
    """

    seed: int = 20140312
    scale: float = 1.0
    population: PopulationConfig = field(default_factory=PopulationConfig)
    specs: List[CampaignSpec] = field(default_factory=paper_campaigns)
    monitor_policy: MonitorPolicy = field(default_factory=MonitorPolicy)
    delivery: DeliveryConfig = field(default_factory=DeliveryConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    clickworker_config: ClickWorkerConfig = field(default_factory=ClickWorkerConfig)
    termination_policy: Optional[TerminationPolicy] = None
    baseline_sample_size: int = 2000
    termination_delay_days: float = 30.0
    horizon_days: float = 50.0
    fault_profile: Optional[FaultProfile] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    checkpoint: Optional[CheckpointConfig] = None
    active_spec_ids: Optional[List[str]] = None
    collect_globals: bool = True
    failpoints: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self.scale, "scale")
        check_positive(self.baseline_sample_size, "baseline_sample_size")
        check_positive(self.horizon_days, "horizon_days")
        require(len(self.specs) > 0, "study needs at least one campaign spec")
        ids = [spec.campaign_id for spec in self.specs]
        require(len(ids) == len(set(ids)), "campaign ids must be unique")
        if self.active_spec_ids is not None:
            require(
                len(self.active_spec_ids) > 0,
                "active_spec_ids must name at least one campaign",
            )
            unknown = [i for i in self.active_spec_ids if i not in set(ids)]
            require(
                not unknown,
                f"active_spec_ids name unknown campaigns: {unknown}",
            )
            require(
                len(self.active_spec_ids) == len(set(self.active_spec_ids)),
                "active_spec_ids must be unique",
            )

    def active_specs(self) -> List[CampaignSpec]:
        """The specs this run actually promotes/monitors (all by default)."""
        if self.active_spec_ids is None:
            return list(self.specs)
        wanted = set(self.active_spec_ids)
        return [spec for spec in self.specs if spec.campaign_id in wanted]

    @staticmethod
    def small(seed: int = 20140312) -> "StudyConfig":
        """A fast, shape-preserving configuration for tests and examples."""
        return StudyConfig(
            seed=seed,
            scale=0.1,
            population=PopulationConfig(
                n_users=800, n_normal_pages=400, n_spam_pages=120
            ),
            baseline_sample_size=400,
        )

    @staticmethod
    def chaos(seed: int = 20140312) -> "StudyConfig":
        """The small study under the default chaos profile (``make chaos``)."""
        config = StudyConfig.small(seed=seed)
        config.fault_profile = FaultProfile.default()
        return config

    @staticmethod
    def at_scale(n: float, seed: int = 20140312) -> "StudyConfig":
        """A paper-shaped study with population and campaigns scaled by ``n``.

        The knob behind ``repro-study run --scale N`` for ``N > 1``: the
        organic population grows linearly (``n_users`` × ``N``) and every
        campaign's budget / farm package grows through ``scale=N``, so
        like-event and friendship-edge volume scales ~linearly with ``N``.
        The page universe keeps its paper-sized segmentation — the
        honeypot campaigns still target thirteen pages, popularity stays
        Zipf over the same ranks, and per-user like sampling cost stays
        flat — which makes ``N`` purely a *population/volume* multiplier,
        the axis the columnar stores are sized for.  ``at_scale(1)`` is
        exactly the paper-scale default config.
        """
        require(n >= 1, f"at_scale expects n >= 1, got {n}")
        base = PopulationConfig()
        return StudyConfig(
            seed=seed,
            scale=float(n),
            population=PopulationConfig(
                n_users=int(round(base.n_users * n)),
                n_normal_pages=base.n_normal_pages,
                n_spam_pages=base.n_spam_pages,
            ),
        )


@dataclass
class StudyArtifacts:
    """Everything a study run produced.

    ``dataset`` is the analysis-facing output; the remaining handles expose
    simulator ground truth for detector evaluation and debugging.
    """

    dataset: HoneypotDataset
    network: SocialNetwork
    campaigns: Dict[str, AdCampaign]
    orders: Dict[str, FarmOrder]
    monitors: Dict[str, PageMonitor]
    page_ids: Dict[str, PageId]
    api: PlatformAPI
    metrics: MetricsRegistry = None
    #: Checkpoint-overhead accounting (None when checkpointing was off).
    checkpoint: Optional[Dict] = None
    #: Final simulated time in virtual minutes (deterministic).
    virtual_minutes: int = 0
    #: Users registered before any campaign launch (world + page owners).
    #: Identical across the shards of one study — everything above it is
    #: shard-local dynamic allocation (clickworkers, farm accounts), which
    #: the shard merge relocates into per-shard id ranges.
    build_user_count: int = 0


@dataclass
class _StudyComponents:
    """Everything a running study holds, assembled by the build phase.

    The checkpoint layer serialises the *stateful observers* out of this
    bundle (``streams``, ``engine``, ``monitors``, the resilient client,
    ``metrics``); the simulated world itself (``network`` and the event
    callbacks) is reconstructed by deterministic replay on resume.
    """

    metrics: MetricsRegistry
    streams: Dict[str, RngStream]
    network: SocialNetwork
    engine: EventEngine
    stats: RequestStats
    api: PlatformAPI
    endpoints: ReadEndpoints
    resilient: Optional[ResilientAPI]
    page_ids: Dict[str, PageId]
    monitors: Dict[str, PageMonitor]
    ad_campaigns: Dict[str, AdCampaign]
    orders: Dict[str, FarmOrder]
    crawl_time: int
    #: Users registered before any campaign launch (world + page owners);
    #: the shard merge's dynamic-id floor, identical across shards.
    build_user_count: int = 0
    dataset: Optional[HoneypotDataset] = None


class HoneypotStudy:
    """Runs the full measurement study on a fresh simulated world."""

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config if config is not None else StudyConfig()
        self._components: Optional[_StudyComponents] = None

    def run(self) -> StudyArtifacts:
        """Execute the study end to end and return all artifacts.

        With ``config.checkpoint`` set, every phase boundary (and every
        ``every_days`` of simulated time) writes a durable snapshot and
        the dataset journal records each observation as it happens; an
        operator Ctrl-C additionally leaves a final best-effort snapshot
        before the interrupt propagates.
        """
        config = self.config
        metrics = config.observability.build_registry()
        if config.failpoints:
            failpoints.configure(config.failpoints)
        if failpoints.is_armed():
            failpoints.bind_metrics(metrics)
        manager = self._open_checkpoint(metrics)
        self._components = None
        try:
            return self._run(metrics, manager)
        except KeyboardInterrupt:
            if manager is not None and self._components is not None:
                components = self._components
                manager.interrupt(
                    self._state_dict(components), components.engine.clock.now
                )
            raise
        finally:
            if manager is not None:
                manager.close()

    def build_world(self) -> "_StudyComponents":
        """Run only the build phase: world, campaign launch, no simulation.

        The ``--scale N`` benchmark's entry point — proves a scaled world
        (population, likes, friendship graph, worker pools) fits in memory
        and measures build wall time without paying for delivery, crawling,
        or the sweep.  Returns the live component bundle; the event engine
        has not consumed any events.
        """
        metrics = self.config.observability.build_registry()
        components = self._build(metrics, None)
        self._components = components
        return components

    # -- phases -------------------------------------------------------------------

    def _run(
        self, metrics: MetricsRegistry, manager: Optional[CheckpointManager]
    ) -> StudyArtifacts:
        components = self._build(metrics, manager)
        self._components = components
        self._checkpoint(manager, components, "build")
        self._simulate(components, manager)
        self._checkpoint(manager, components, "simulate")
        self._collect_phase(components, manager)
        self._checkpoint(manager, components, "collect")
        self._sweep_phase(components, manager)
        self._checkpoint(manager, components, "sweep")

        if metrics.enabled:
            self._publish_campaign_metrics(
                metrics, components.dataset, components.ad_campaigns,
                components.monitors,
            )
        return StudyArtifacts(
            dataset=components.dataset,
            network=components.network,
            campaigns=components.ad_campaigns,
            orders=components.orders,
            monitors=components.monitors,
            page_ids=components.page_ids,
            api=components.api,
            metrics=metrics,
            checkpoint=manager.stats() if manager is not None else None,
            virtual_minutes=int(components.engine.clock.now),
            build_user_count=components.build_user_count,
        )

    def _build(
        self, metrics: MetricsRegistry, manager: Optional[CheckpointManager]
    ) -> _StudyComponents:
        """Phase 1: build the world, wire components, launch every campaign."""
        config = self.config
        rng = RngStream(config.seed, "study")
        # Every labelled stream whose generator state must survive a
        # checkpoint/resume cycle.  Children are derived from the seed, so
        # creating them all up front changes nothing about their draws.
        streams: Dict[str, RngStream] = {"study": rng}

        def fork(label: str) -> RngStream:
            streams[label] = rng.child(label)
            return streams[label]

        network = SocialNetwork()
        engine = EventEngine(metrics=metrics)

        with metrics.span("study.build_world"):
            world = WorldBuilder(config.population).build(network, fork("world"))
        clickworkers = ClickWorkerPopulation(
            network,
            world.universe,
            fork("clickworkers"),
            config=config.clickworker_config,
        )
        ad_engine = AdDeliveryEngine(
            network,
            config.cost_model,
            clickworkers,
            fork("ads"),
            config=config.delivery,
            metrics=metrics,
        )
        factory = FakeAccountFactory(network, world.universe)
        catalog = FarmCatalog(network, factory, fork("farms"), metrics=metrics)
        # One crawl surface; request stats aggregate here.  When observability
        # is on, the stats counters live in the shared registry so they appear
        # in the run manifest; when off, RequestStats keeps its own private
        # registry (a null one would silently stop counting requests).
        stats = RequestStats(metrics=metrics) if metrics.enabled else RequestStats()
        api = PlatformAPI(network, stats=stats)
        endpoints: ReadEndpoints = api
        resilient: Optional[ResilientAPI] = None
        if config.fault_profile is not None:
            # The fault stack draws from its own child streams only, so a
            # zero-rate profile consumes no randomness and the study stays
            # byte-identical to an unwrapped run (tests/test_chaos_smoke.py).
            faulty = FaultyPlatformAPI(api, config.fault_profile, fork("faults"))
            resilient = ResilientAPI(faulty, config.retry_policy, fork("backoff"))
            endpoints = resilient
        # Streams consumed by the later phases, forked now so their states
        # are part of every snapshot from the first barrier on.
        fork("termination")
        fork("baseline")

        page_ids: Dict[str, PageId] = {}
        monitors: Dict[str, PageMonitor] = {}
        ad_campaigns: Dict[str, AdCampaign] = {}
        orders: Dict[str, FarmOrder] = {}

        # Every spec's page is created (in spec order) even when only a
        # subset is active, so page-id *and page-owner* assignment is
        # identical across the shards of one study; inactive pages receive
        # no promotion, no monitor, and stay empty.  Page creation draws no
        # randomness, and all of it happens before any campaign launch —
        # the user count at this point is the dynamic-id floor the shard
        # merge relies on: everything allocated above it (clickworker
        # pools, farm accounts) is shard-local.
        active_ids = {spec.campaign_id for spec in config.active_specs()}
        pages = {
            spec.campaign_id: create_honeypot_page(network, spec.campaign_id)
            for spec in config.specs
        }
        build_user_count = network.user_count
        for spec in config.specs:
            if spec.campaign_id not in active_ids:
                continue
            page = pages[spec.campaign_id]
            page_ids[spec.campaign_id] = page.page_id
            if spec.is_facebook:
                campaign = AdCampaign(
                    page_id=page.page_id,
                    targeting=spec.targeting(),
                    daily_budget=spec.daily_budget * config.scale,
                    duration_days=int(spec.duration_days),
                )
                ad_engine.launch(campaign, engine)
                ad_campaigns[spec.campaign_id] = campaign
            else:
                target = max(1, int(round(spec.target_likes * config.scale)))
                orders[spec.campaign_id] = catalog.service(spec.provider).place_order(
                    page_id=page.page_id,
                    region=spec.region,
                    target_likes=target,
                    engine=engine,
                    promised_days=spec.duration_days,
                    fulfillment=spec.fulfillment,
                )
            monitor = PageMonitor(
                network,
                page.page_id,
                campaign_end=days(spec.duration_days),
                policy=config.monitor_policy,
                api=endpoints,
                metrics=metrics,
            )
            monitor.attach(engine)
            if manager is not None:
                monitor.on_snapshot = self._snapshot_journaler(
                    manager, spec.campaign_id
                )
            monitors[spec.campaign_id] = monitor

        crawl_time = days(
            max(spec.duration_days for spec in config.active_specs())
            + config.monitor_policy.quiet_stop / DAY
            + 1
        )
        return _StudyComponents(
            metrics=metrics,
            streams=streams,
            network=network,
            engine=engine,
            stats=stats,
            api=api,
            endpoints=endpoints,
            resilient=resilient,
            page_ids=page_ids,
            monitors=monitors,
            ad_campaigns=ad_campaigns,
            orders=orders,
            crawl_time=crawl_time,
            build_user_count=build_user_count,
        )

    def _simulate(
        self, components: _StudyComponents, manager: Optional[CheckpointManager]
    ) -> None:
        """Phase 2: run delivery + monitoring to the crawl boundary.

        Checkpoint barriers segment the event loop from the *outside*
        (``run_until`` to each barrier time in turn), so the event/firing
        sequence — and therefore every deterministic output — is identical
        to an unsegmented run.
        """
        engine = components.engine
        with components.metrics.span("study.simulate"):
            if manager is not None:
                for barrier in manager.barrier_times(0, components.crawl_time):
                    engine.run_until(barrier)
                    self._checkpoint(manager, components, "simulate")
            engine.run_until(components.crawl_time)

    def _collect_phase(
        self, components: _StudyComponents, manager: Optional[CheckpointManager]
    ) -> None:
        """Phase 3: crawl likers + baseline and assemble the dataset."""
        with components.metrics.span("study.collect"):
            dataset = self._collect(components, manager)
        components.dataset = dataset
        for campaign_id, campaign in components.ad_campaigns.items():
            dataset.campaigns[campaign_id].total_cost = round(campaign.spend, 2)
        for campaign_id, order in components.orders.items():
            dataset.campaigns[campaign_id].total_cost = order.price

    def _sweep_phase(
        self, components: _StudyComponents, manager: Optional[CheckpointManager]
    ) -> None:
        """Phase 4: the month-later termination sweep and its recheck crawl."""
        config = self.config
        engine = components.engine
        sweep_time = components.crawl_time + days(config.termination_delay_days)
        engine.run_until(min(sweep_time, days(config.horizon_days)))
        policy = (
            config.termination_policy
            if config.termination_policy is not None
            else default_termination_policy(config.scale)
        )
        sweep = TerminationSweep(policy)
        with components.metrics.span("study.termination_sweep"):
            sweep.run(
                components.network,
                components.page_ids.values(),
                components.streams["termination"],
                engine.clock.now,
            )
            self._record_terminations(components, manager)

    # -- checkpoint plumbing ------------------------------------------------------

    def _open_checkpoint(
        self, metrics: MetricsRegistry
    ) -> Optional[CheckpointManager]:
        if self.config.checkpoint is None:
            return None
        return CheckpointManager.open(
            self.config.checkpoint,
            seed=self.config.seed,
            config_hash=config_fingerprint(self.config),
            metrics=metrics,
        )

    def _checkpoint(
        self,
        manager: Optional[CheckpointManager],
        components: _StudyComponents,
        phase: str,
    ) -> None:
        """Reach a barrier: snapshot in a fresh run, verify+restore on resume."""
        if manager is None:
            return
        stored = manager.at_barrier(
            phase, components.engine.clock.now, self._state_dict(components)
        )
        if stored is not None:
            # The replayed state just proved equal to the crashed run's
            # snapshot; loading it back makes the stored state authoritative
            # (and keeps the restore path honest, not just the comparison).
            self._load_state(components, stored)

    def _state_dict(self, components: _StudyComponents) -> Dict:
        """All serialisable study state, as pure JSON types."""
        state: Dict = {
            "rng": {
                name: components.streams[name].state_dict()
                for name in sorted(components.streams)
            },
            "engine": components.engine.state_dict(),
            "monitors": {
                campaign_id: components.monitors[campaign_id].state_dict()
                for campaign_id in sorted(components.monitors)
            },
            "resilient": (
                components.resilient.state_dict()
                if components.resilient is not None
                else None
            ),
            "metrics": components.metrics.state_dict(),
            "request_stats": components.stats.as_dict(),
        }
        return state

    def _load_state(self, components: _StudyComponents, stored: Dict) -> None:
        for name in sorted(components.streams):
            components.streams[name].load_state_dict(stored["rng"][name])
        components.engine.load_state_dict(stored["engine"])
        for campaign_id in sorted(components.monitors):
            components.monitors[campaign_id].load_state_dict(
                stored["monitors"][campaign_id]
            )
        if components.resilient is not None and stored.get("resilient"):
            components.resilient.load_state_dict(stored["resilient"])
        # Request stats first: their setattr materialises zero-valued counter
        # keys the crashed run may not have had yet, and the registry load
        # below must win so the counter *key set* matches the snapshot too.
        for attr, value in stored["request_stats"].items():
            setattr(components.stats, attr, value)
        components.metrics.load_state_dict(stored["metrics"])

    @staticmethod
    def _snapshot_journaler(
        manager: CheckpointManager, campaign_id: str
    ) -> Callable[[MonitorSnapshot], None]:
        """The monitor's write-ahead hook: journal each snapshot on record."""

        def journal(snapshot: MonitorSnapshot) -> None:
            manager.journal.append(
                {
                    "type": "monitor-snapshot",
                    "campaign_id": campaign_id,
                    "time": snapshot.time,
                    "cumulative_likes": snapshot.cumulative_likes,
                    "new_liker_ids": [int(u) for u in snapshot.new_liker_ids],
                }
            )

        return journal

    # -- internals ----------------------------------------------------------------

    def _collect(
        self,
        components: _StudyComponents,
        manager: Optional[CheckpointManager] = None,
    ) -> HoneypotDataset:
        crawler = ProfileCrawler(
            components.network, api=components.endpoints,
            metrics=components.metrics,
        )
        dataset = HoneypotDataset()

        liker_campaigns: Dict[UserId, List[str]] = {}
        for spec in self.config.active_specs():
            monitor = components.monitors[spec.campaign_id]
            observations = [
                LikeObservation(observed_at=snapshot.time, user_id=int(user_id))
                for snapshot in monitor.snapshots
                for user_id in snapshot.new_liker_ids
            ]
            for obs in observations:
                liker_campaigns.setdefault(UserId(obs.user_id), []).append(
                    spec.campaign_id
                )
            dataset.campaigns[spec.campaign_id] = CampaignRecord(
                campaign_id=spec.campaign_id,
                provider=spec.provider,
                kind=spec.kind,
                location_label=spec.location_label,
                budget_label=spec.budget_label,
                duration_days=spec.duration_days,
                monitored_days=monitor.monitored_days,
                page_id=int(monitor.page_id),
                total_likes=len(observations),
                observations=observations,
                inactive=(len(observations) == 0),
            )

        on_liker: Optional[Callable[[LikerRecord], None]] = None
        on_baseline: Optional[Callable[[BaselineRecord], None]] = None
        if manager is not None:
            on_liker = lambda record: manager.journal.append(  # noqa: E731
                {"type": "liker", **record_fields(record)}
            )
            on_baseline = lambda record: manager.journal.append(  # noqa: E731
                {"type": "baseline", **record_fields(record)}
            )
        dataset.likers = crawler.crawl_likers(liker_campaigns, on_record=on_liker)
        if self.config.collect_globals:
            dataset.baseline = crawler.crawl_baseline(
                components.streams["baseline"],
                self.config.baseline_sample_size,
                on_record=on_baseline,
            )
            report = ReportsTool(components.network).global_report()
            dataset.global_gender = report.gender
            dataset.global_age = report.age
            dataset.global_country = report.country
        return dataset

    def _record_terminations(
        self,
        components: _StudyComponents,
        manager: Optional[CheckpointManager] = None,
    ) -> None:
        crawler = ProfileCrawler(
            components.network, api=components.endpoints,
            metrics=components.metrics,
        )
        dataset = components.dataset
        for campaign_id, monitor in components.monitors.items():
            terminated = crawler.recheck_terminations(monitor.observed_liker_ids())
            record = dataset.campaigns[campaign_id]
            record.terminated_liker_ids = terminated
            record.removed_like_count = len(
                components.network.likes.removals_for_page(monitor.page_id)
            )
            for user_id in terminated:
                if user_id in dataset.likers:
                    dataset.likers[user_id].terminated = True
            if manager is not None:
                manager.journal.append(
                    {
                        "type": "termination",
                        "campaign_id": campaign_id,
                        "terminated_liker_ids": list(terminated),
                        "removed_like_count": record.removed_like_count,
                    }
                )

    @staticmethod
    def _publish_campaign_metrics(
        metrics: MetricsRegistry,
        dataset: HoneypotDataset,
        ad_campaigns: Dict[str, AdCampaign],
        monitors: Dict[str, PageMonitor],
    ) -> None:
        """Per-campaign rollups for the run manifest (all deterministic)."""
        for campaign_id, record in dataset.campaigns.items():
            prefix = f"campaign.{campaign_id}"
            metrics.set_gauge(f"{prefix}.total_likes", record.total_likes)
            metrics.set_gauge(f"{prefix}.monitored_days", round(record.monitored_days, 4))
            metrics.set_gauge(f"{prefix}.terminated_likers", len(record.terminated_liker_ids))
            monitor = monitors.get(campaign_id)
            if monitor is not None:
                metrics.set_gauge(f"{prefix}.missed_polls", monitor.missed_polls)
            campaign = ad_campaigns.get(campaign_id)
            if campaign is not None:
                metrics.set_gauge(f"{prefix}.spend_microusd", round(campaign.spend * 1_000_000))
                metrics.set_gauge(f"{prefix}.clicks", campaign.clicks)
