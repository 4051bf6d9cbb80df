"""Pins for the per-event path of the simulate phase.

* The tuple-queue engine against a reference copy of the engine it
  replaced (one ``ScheduledEvent`` object per event, a ``cancelled``
  flag on it, two dispatch loops): same firing order, counters,
  pending count, queue signature and state after every step.
* The monitor's prefix-diff poll against the full scan it replaced:
  same snapshots and same ``_seen`` over appends, truncated pages,
  removals, re-likes, poll gaps and reloaded state.
* The click handler's column reads against the profile-view reads they
  replaced, on twin worlds.
* The checks made lazy raise their old messages.
* The small study's simulate phase builds no ``ProfileView``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ads.clickworkers import ClickWorkerPopulation
from repro.ads.costmodel import CostModel, CountryMarket
from repro.ads.campaign import AdCampaign
from repro.ads.delivery import AdDeliveryEngine
from repro.ads.targeting import TargetingSpec
from repro.honeypot.monitor import PageMonitor
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.api import PublicPage
from repro.osn.faults import TransientError
from repro.osn.network import SocialNetwork
from repro.osn.population import PopulationConfig, WorldBuilder
from repro.osn.profile import Gender
from repro.osn.profilestore import ProfileView
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.util.rng import RngStream
from repro.util.timeutil import DAY, format_time
from repro.util.validation import ValidationError, require


# -- the engine against the one it replaced -----------------------------------


@dataclass
class _RefEvent:
    time: int
    sequence: int
    callback: Callable = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class _ReferenceEngine:
    """The object-per-event engine, as it stood before tuple events."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._queue = []
        self._sequence = 0
        self._fired = 0
        self._skipped_cancelled = 0

    @property
    def pending(self) -> int:
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def fired(self) -> int:
        return self._fired

    def schedule(self, time, callback, label=""):
        require(time >= self.clock.now, "cannot schedule in the past")
        event = _RefEvent(time, self._sequence, callback, label)
        self._sequence += 1
        heapq.heappush(self._queue, (time, event.sequence, event))
        return event

    def run_until(self, end_time) -> None:
        while self._queue and self._queue[0][0] <= end_time:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._skipped_cancelled += 1
                continue
            self.clock.advance_to(event.time)
            self._fired += 1
            event.callback(event.time)
        self.clock.advance_to(end_time)

    def run(self) -> None:
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._skipped_cancelled += 1
                continue
            self.clock.advance_to(event.time)
            self._fired += 1
            event.callback(event.time)

    def queue_signature(self):
        return sorted(
            [event.time, event.sequence, event.label]
            for _, _, event in self._queue
            if not event.cancelled
        )

    def state_dict(self) -> dict:
        return {
            "clock": self.clock.state_dict(),
            "sequence": self._sequence,
            "fired": self._fired,
            "skipped_cancelled": self._skipped_cancelled,
            "queue": self.queue_signature(),
        }


#: Cap on events per program, so callbacks that schedule cannot run away.
_MAX_EVENTS = 60


class _Runner:
    """Runs one program on one engine and logs what fires.

    Event ``i`` reacts with ``reactions[i % len(reactions)]``: an
    optional delay to schedule a follow-up at, and an optional index of
    an event to cancel (pending, fired or cancelled already).
    """

    def __init__(self, engine, cancel, reactions) -> None:
        self.engine = engine
        self._cancel = cancel
        self._reactions = reactions
        self.handles: List = []
        self.log: List = []

    def schedule(self, time: int) -> None:
        index = len(self.handles)

        def callback(now: int) -> None:
            self.log.append((index, now))
            spawn, victim = self._reactions[index % len(self._reactions)]
            if victim is not None:
                self.cancel(victim)
            if spawn is not None and len(self.handles) < _MAX_EVENTS:
                self.schedule(now + spawn)

        self.handles.append(self.engine.schedule(time, callback, label=f"e{index % 3}"))

    def cancel(self, index: int) -> None:
        if self.handles:
            self._cancel(self.engine, self.handles[index % len(self.handles)])

    def step(self, op) -> None:
        kind, value = op
        now = self.engine.clock.now
        if kind == "schedule":
            if len(self.handles) < _MAX_EVENTS:
                self.schedule(now + value)
        elif kind == "cancel":
            self.cancel(value)
        elif kind == "run_until":
            self.engine.run_until(now + value)
        else:
            self.engine.run()

    def observed(self):
        engine = self.engine
        return (
            list(self.log),
            engine.fired,
            engine.pending,
            engine.queue_signature(),
            engine.state_dict(),
        )


_OPS = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run_until"), st.integers(0, 8)),
    st.tuples(st.just("run"), st.just(0)),
)
_REACTIONS = st.lists(
    st.tuples(st.none() | st.integers(0, 4), st.none() | st.integers(0, 50)),
    min_size=1,
    max_size=6,
)


class TestEngineAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPS, min_size=1, max_size=40), _REACTIONS)
    def test_same_order_counters_and_state(self, ops, reactions):
        ref = _Runner(_ReferenceEngine(), lambda engine, event: event.cancel(), reactions)
        new = _Runner(EventEngine(), lambda engine, seq: engine.cancel(seq), reactions)
        for op in ops + [("run", 0)]:
            ref.step(op)
            new.step(op)
            assert new.observed() == ref.observed()

    def test_schedule_returns_the_sequence(self):
        engine = EventEngine()
        assert [engine.schedule(5, print) for _ in range(3)] == [0, 1, 2]
        assert engine.queue_signature() == [[5, 0, ""], [5, 1, ""], [5, 2, ""]]

    def test_cancelling_a_fired_event_changes_nothing(self):
        engine = EventEngine()
        first = engine.schedule(1, lambda t: None)
        engine.schedule(9, lambda t: None)
        engine.run_until(5)
        engine.cancel(first)
        engine.cancel(first + 100)  # never scheduled
        assert engine.pending == 1
        engine.run()
        assert engine.state_dict()["skipped_cancelled"] == 0
        assert engine.fired == 2

    def test_a_skipped_event_clears_its_cancel(self):
        engine = EventEngine()
        drop = engine.schedule(1, lambda t: None)
        engine.cancel(drop)
        engine.cancel(drop)
        assert engine.pending == 0
        engine.schedule(2, lambda t: None)
        engine.run_until(1)
        assert engine.pending == 1
        assert engine.state_dict()["skipped_cancelled"] == 1


# -- the monitor against the full scan -----------------------------------------


class _ScriptedAPI:
    """Serves whatever page the test sets; ``None`` is a failed poll."""

    def __init__(self) -> None:
        self.liker_ids = None

    def get_page(self, page_id):
        if self.liker_ids is None:
            raise TransientError("scripted gap")
        return PublicPage(
            page_id=int(page_id),
            name="p",
            description="",
            like_count=len(self.liker_ids),
            liker_ids=tuple(self.liker_ids),
        )


class _FullScan:
    """The poll as it was: every id of every list is checked."""

    def __init__(self) -> None:
        self.snapshots: List = []
        self.seen = set()

    def poll(self, time: int, liker_ids) -> None:
        if liker_ids is None:
            return
        new = tuple(u for u in liker_ids if u not in self.seen)
        self.seen.update(new)
        self.snapshots.append((time, len(liker_ids), new))

    def restore(self, snapshots) -> None:
        self.snapshots = list(snapshots)
        self.seen = {u for _, _, new in snapshots for u in new}


_LIST_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 4)),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("relike"), st.integers(0, 30)),
    st.tuples(st.just("poll"), st.just(0)),
    st.tuples(st.just("truncated"), st.integers(0, 30)),
    st.tuples(st.just("gap"), st.just(0)),
    st.tuples(st.just("save"), st.just(0)),
    st.tuples(st.just("load"), st.integers(0, 5)),
)


def _monitor_snapshots(monitor):
    return [(s.time, s.cumulative_likes, s.new_liker_ids) for s in monitor.snapshots]


class TestMonitorAgainstFullScan:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LIST_OPS, min_size=1, max_size=50))
    # a removal then an append: same length, but no longer a prefix
    @example([("append", 3), ("poll", 0), ("remove", 1), ("append", 1), ("poll", 0)])
    # a rewind: the loaded state has not seen the last polled list
    @example([("save", 0), ("append", 2), ("poll", 0), ("load", 0), ("poll", 0)])
    def test_same_snapshots_and_seen(self, ops):
        network = SocialNetwork()
        page = network.create_page("P", category="honeypot")
        api = _ScriptedAPI()
        monitor = PageMonitor(network, page.page_id, campaign_end=10 * DAY, api=api)
        ref = _FullScan()
        likers: List[int] = []
        removed: List[int] = []
        saved = []
        next_id = 1
        time = 0
        for kind, value in ops:
            if kind == "append":
                likers.extend(range(next_id, next_id + value))
                next_id += value
            elif kind == "remove" and likers:
                removed.append(likers.pop(value % len(likers)))
            elif kind == "relike" and removed:
                likers.append(removed.pop(value % len(removed)))
            elif kind in ("poll", "truncated", "gap"):
                served = {
                    "poll": likers,
                    "truncated": likers[: value % (len(likers) + 1)],
                    "gap": None,
                }[kind]
                time += 120
                api.liker_ids = served
                monitor._poll(time)
                ref.poll(time, served)
            elif kind == "save":
                saved.append((monitor.state_dict(), list(ref.snapshots)))
            elif kind == "load" and saved:
                state, snapshots = saved[value % len(saved)]
                monitor.load_state_dict(state)
                ref.restore(snapshots)
            assert _monitor_snapshots(monitor) == ref.snapshots
            assert monitor._seen == ref.seen


# -- the click handler's column reads ------------------------------------------


class _ViewReadDelivery(AdDeliveryEngine):
    """The click handler as it read clickers before: one profile view each,
    and the market looked up again per click."""

    def _click_handler(self, campaign, country: str, market: CountryMarket, rng):
        def handle(time: int) -> None:
            market = self._cost_model.market(country)
            if campaign.spend + market.cpc > campaign.total_budget:
                return
            campaign.record_click(market.cpc)
            clicker = self._pick_clicker(country, market.clickworker_share, rng)
            if clicker is None:
                return
            profile = self._network.user(clicker)
            if profile.is_terminated:
                return
            like_rate = (
                self.config.clickworker_like_rate
                if profile.cohort == "clickworker"
                else self.config.organic_like_rate
            )
            if rng.bernoulli(like_rate):
                if self._network.like_page(clicker, campaign.page_id, time):
                    campaign.record_like(clicker)

        return handle


def _deliver(delivery_class, targeting):
    rng = RngStream(17, "handler-pin")
    network = SocialNetwork()
    world = WorldBuilder(PopulationConfig.small()).build(network, rng.child("w"))
    clickworkers = ClickWorkerPopulation(network, world.universe, rng.child("cw"))
    delivery_rng = rng.child("d")
    delivery = delivery_class(network, CostModel(), clickworkers, delivery_rng)
    engine = EventEngine()
    page = network.create_page("honeypot", category="honeypot")
    campaign = AdCampaign(
        page_id=page.page_id, targeting=targeting, daily_budget=6.0, duration_days=5
    )
    delivery.launch(campaign, engine)
    # terminate some clickers of both cohorts between launch and delivery
    for user_id in network.profiles.user_ids()[::9].tolist():
        network.terminate_account(user_id, time=0)
    engine.run()
    return (
        campaign.liker_ids,
        campaign.clicks,
        campaign.spend,
        delivery_rng.state_dict(),
    )


@pytest.mark.parametrize(
    "targeting",
    [TargetingSpec.worldwide(), TargetingSpec.country("US")],
    ids=["worldwide", "usa"],
)
def test_click_handler_equals_view_reads(targeting):
    columns = _deliver(AdDeliveryEngine, targeting)
    views = _deliver(_ViewReadDelivery, targeting)
    assert columns == views
    assert len(columns[0]) > 0


# -- lazy checks keep their messages -------------------------------------------


def _message(call) -> str:
    with pytest.raises(ValidationError) as caught:
        call()
    return str(caught.value)


def _network_with_a_terminated_user():
    network = SocialNetwork()
    page = network.create_page("P")
    user = network.create_user(gender=Gender.MALE, age=30, country="US")
    network.terminate_account(user.user_id, time=0)
    return network, page.page_id, user.user_id


class TestLazyChecks:
    def test_clock_moving_back(self):
        clock = SimClock(start=3000)
        assert _message(lambda: clock.advance_to(60)) == (
            f"clock cannot move backwards ({format_time(3000)} -> 60)"
        )

    def test_schedule_in_the_past(self):
        engine = EventEngine()
        engine.run_until(20)
        assert _message(lambda: engine.schedule(5, print)) == (
            "cannot schedule event at 5 before current time 20"
        )

    @pytest.mark.parametrize("p", [1.5, -0.25, float("nan")], ids=["above", "below", "nan"])
    def test_bernoulli_outside_unit(self, p):
        stream = RngStream(1, "lazy")
        assert _message(lambda: stream.bernoulli(p)) == f"bernoulli p must be in [0,1], got {p}"

    def test_randint_empty_range(self):
        stream = RngStream(1, "lazy")
        assert _message(lambda: stream.randint(3, 3)) == "randint requires high > low, got [3, 3)"

    def test_like_page_unknown_user(self):
        network, page_id, _ = _network_with_a_terminated_user()
        assert _message(lambda: network.like_page(42, page_id, 0)) == "unknown user 42"

    def test_like_page_unknown_page(self):
        network, _, user_id = _network_with_a_terminated_user()
        alive = network.create_user(gender=Gender.FEMALE, age=20, country="US").user_id
        assert _message(lambda: network.like_page(alive, 77, 0)) == "unknown page 77"
        assert _message(lambda: network.page_liker_ids(77)) == "unknown page 77"

    def test_like_page_terminated_user(self):
        network, page_id, user_id = _network_with_a_terminated_user()
        assert _message(lambda: network.like_page(user_id, page_id, 0)) == (
            f"terminated user {user_id} cannot like"
        )


# -- no profile views in the simulate phase ------------------------------------


def test_simulate_builds_no_profile_view(monkeypatch):
    built = {"simulate": 0, "other": 0}
    phase = ["other"]
    view_init = ProfileView.__init__

    def counted_init(self, store, row):
        built[phase[0]] += 1
        view_init(self, store, row)

    simulate = HoneypotStudy._simulate

    def counted_simulate(self, components, manager):
        phase[0] = "simulate"
        try:
            simulate(self, components, manager)
        finally:
            phase[0] = "other"

    monkeypatch.setattr(ProfileView, "__init__", counted_init)
    monkeypatch.setattr(HoneypotStudy, "_simulate", counted_simulate)
    artifacts = HoneypotStudy(StudyConfig.small()).run()
    assert artifacts.dataset.total_likes > 0
    assert built["simulate"] == 0
