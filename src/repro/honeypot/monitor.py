"""Honeypot page monitoring.

"We monitored the liking activity on the honeypot pages by crawling them
every 2 hours to check for new likes.  At the end of the campaigns, we
reduced the monitoring frequency to once a day, and stopped monitoring when
a page did not receive a like for more than a week."  — paper, Section 3.

The monitor is the *observation* layer: everything the temporal analysis
sees (paper Figure 2) is the sequence of snapshots it took, at the cadence
it took them, not the ground-truth event times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.osn.api import CrawlFault, PlatformAPI, ReadEndpoints
from repro.osn.ids import PageId, UserId
from repro.osn.network import SocialNetwork
from repro.sim.engine import EventEngine
from repro.sim.process import RecurringProcess
from repro.util.timeutil import CRAWL_INTERVAL, DAY, WEEK
from repro.util.validation import check_positive, require


@dataclass(frozen=True)
class MonitorSnapshot:
    """One crawl of one honeypot page."""

    time: int
    cumulative_likes: int
    new_liker_ids: tuple


@dataclass
class MonitorPolicy:
    """Polling cadence and stop rule.

    Attributes
    ----------
    active_interval:
        Poll interval while the campaign runs (paper: 2 hours).
    idle_interval:
        Poll interval after the campaign ends (paper: daily).
    quiet_stop:
        Stop once this long has passed with no new like (paper: a week).
    """

    active_interval: int = CRAWL_INTERVAL
    idle_interval: int = DAY
    quiet_stop: int = WEEK

    def __post_init__(self) -> None:
        check_positive(self.active_interval, "active_interval")
        check_positive(self.idle_interval, "idle_interval")
        check_positive(self.quiet_stop, "quiet_stop")


class PageMonitor:
    """Polls one page on the simulation engine and records snapshots."""

    def __init__(
        self,
        network: SocialNetwork,
        page_id: PageId,
        campaign_end: int,
        policy: Optional[MonitorPolicy] = None,
        start: int = 0,
        api: Optional[ReadEndpoints] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        require(campaign_end >= start, "campaign_end must be >= start")
        self._network = network
        self.api = api if api is not None else PlatformAPI(network)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.page_id = page_id
        self.campaign_end = campaign_end
        self.policy = policy if policy is not None else MonitorPolicy()
        self.start = start
        self.snapshots: List[MonitorSnapshot] = []
        self.poll_gaps: List[int] = []  # times of polls lost to crawl faults
        self._seen: Set[UserId] = set()
        # The last successful poll's liker list: when it is a prefix of
        # the next one, only the ids after it can be new.
        self._scanned: tuple = ()
        self._last_new_like_time = start
        # repro-lint: allow-CKPT002 scheduling machinery, not observation state: rebuilt by attach()+deterministic replay; the pending poll lives in the engine queue, covered by the engine's own state_dict
        self._process: Optional[RecurringProcess] = None
        #: Called with each freshly recorded snapshot (the checkpoint
        #: journal's write-ahead hook); None when checkpointing is off.
        self.on_snapshot: Optional[Callable[[MonitorSnapshot], None]] = None

    def attach(self, engine: EventEngine) -> None:
        """Start polling on ``engine`` at the monitor's start time."""
        require(self._process is None, "monitor already attached")
        self._process = RecurringProcess(
            engine,
            action=self._poll,
            interval_policy=self._next_interval,
            label=f"monitor:{self.page_id}",
        )
        self._process.start(at=self.start)

    @property
    def stopped(self) -> bool:
        """Whether monitoring has ended."""
        return self._process is not None and self._process.stopped

    @property
    def monitored_days(self) -> float:
        """How long the page was monitored, in days."""
        if not self.snapshots:
            return 0.0
        return (self.snapshots[-1].time - self.start) / DAY

    def observed_liker_ids(self) -> List[UserId]:
        """Every liker seen across all snapshots, in first-seen order."""
        ordered: List[UserId] = []
        for snapshot in self.snapshots:
            ordered.extend(snapshot.new_liker_ids)
        return ordered

    @property
    def missed_polls(self) -> int:
        """Polls that failed despite retries (gaps in the snapshot series)."""
        return len(self.poll_gaps)

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> dict:
        """The monitor's observation state as plain JSON types.

        Captures everything the monitor has *recorded* (snapshots, gaps,
        quiet-clock position, tick count).  The pending poll event lives in
        the engine queue and is covered by the engine's own state; the
        ``_seen`` set is derivable from the snapshots and is rebuilt on
        load rather than stored.
        """
        return {
            "page_id": int(self.page_id),
            "snapshots": [
                [s.time, s.cumulative_likes, [int(u) for u in s.new_liker_ids]]
                for s in self.snapshots
            ],
            "poll_gaps": list(self.poll_gaps),
            "last_new_like_time": self._last_new_like_time,
            "stopped": self.stopped,
            "tick_count": self._process.tick_count if self._process else 0,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore observation state captured by :meth:`state_dict`.

        Scheduling state (the next pending poll) is *not* restored here —
        it is rebuilt by deterministic replay and verified against the
        engine's queue signature by the checkpoint layer.
        """
        require(
            int(state["page_id"]) == int(self.page_id),
            f"monitor state is for page {state['page_id']}, not {int(self.page_id)}",
        )
        self.snapshots = [
            MonitorSnapshot(
                time=time,
                cumulative_likes=cumulative,
                new_liker_ids=tuple(UserId(u) for u in new),
            )
            for time, cumulative, new in state["snapshots"]
        ]
        self.poll_gaps = list(state["poll_gaps"])
        self._last_new_like_time = int(state["last_new_like_time"])
        # The process itself is replay-rebuilt, so the derived values the
        # snapshot carries must already agree with the live monitor; a
        # mismatch here means replay diverged at this monitor.
        require(
            bool(state["stopped"]) == self.stopped,
            "monitor stop state diverged from the checkpoint",
        )
        require(
            int(state["tick_count"])
            == (self._process.tick_count if self._process else 0),
            "monitor tick count diverged from the checkpoint",
        )
        self._seen = set()
        for snapshot in self.snapshots:
            self._seen.update(snapshot.new_liker_ids)
        self._scanned = ()

    # -- internals ----------------------------------------------------------------

    def _poll(self, time: int) -> None:
        self.metrics.inc("honeypot.polls")
        try:
            page = self.api.get_page(self.page_id)
        except CrawlFault:
            # A lost poll is a gap, not a death: no snapshot is recorded,
            # the quiet-stop clock keeps its last-like time, and the next
            # interval fires as usual.  Likes that landed in the gap are
            # first-observed by the next successful poll (the page serves
            # cumulative liker lists), so nothing is lost permanently —
            # only observed_at shifts, as it did in the paper's crawl.
            self.poll_gaps.append(time)
            self.metrics.inc("honeypot.poll_gaps")
            self.metrics.trace_event(
                "poll_gap", time=time, page_id=int(self.page_id)
            )
            return
        likers = page.liker_ids
        scanned = self._scanned
        if scanned and likers[: len(scanned)] == scanned:
            # Every id of the earlier list is in _seen already.  A
            # truncated page or a removal breaks the prefix, and then
            # the whole list is scanned.
            likers = likers[len(scanned) :]
        self._scanned = page.liker_ids
        seen = self._seen
        new = tuple(u for u in likers if u not in seen)
        seen.update(new)
        if new:
            self._last_new_like_time = time
        snapshot = MonitorSnapshot(
            time=time, cumulative_likes=page.like_count, new_liker_ids=new
        )
        self.snapshots.append(snapshot)
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)

    def _next_interval(self, time: int) -> Optional[int]:
        if time < self.campaign_end:
            # The paper's quiet-week stop applied to the post-campaign daily
            # phase; during the campaign the 2-hour cadence never pauses, so
            # a slow-trickling ad campaign cannot lose its later likes.
            return self.policy.active_interval
        if time - self._last_new_like_time > self.policy.quiet_stop:
            return None
        return self.policy.idle_interval
