"""Profile crawling under privacy constraints.

The paper crawled likers' public profiles with Selenium, obtaining friend
lists (where public) and liked-page lists, and got demographics from the
page-insights reports.  The crawler here plays the same role against the
simulated network: everything privacy-sensitive is fetched through the
read-only :class:`repro.osn.api.PlatformAPI` (which enforces
:class:`repro.osn.privacy.PrivacyPolicy` and counts requests), while
demographics come from the insights reports, which see private attributes
in aggregate (paper footnote 1).  The output is
:class:`repro.honeypot.storage.LikerRecord` objects — the analysis layer's
only view of likers.

The crawl surface may be unreliable (see :mod:`repro.osn.faults`): any API
call may raise a :class:`~repro.osn.api.CrawlFault` even after the
resilient client's retries.  The crawler degrades gracefully instead of
aborting the study — a liker whose endpoints stay down yields a *partial*
record (``crawl_status="partial"``, the lost field groups named in
``failed_fields``), a baseline user who cannot be crawled drops out of the
sample, and the termination recheck counts an unreachable profile as alive
(keeping the terminated count the lower bound the paper reports).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.honeypot.storage import (
    CRAWL_COMPLETE,
    CRAWL_PARTIAL,
    BaselineRecord,
    LikerRecord,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.osn.api import CrawlFault, PlatformAPI, ReadEndpoints
from repro.osn.directory import PublicDirectory
from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.util.rng import RngStream

T = TypeVar("T")


class ProfileCrawler:
    """Crawls liker profiles and the random baseline sample."""

    def __init__(
        self,
        network: SocialNetwork,
        api: Optional[ReadEndpoints] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._network = network
        self.api = api if api is not None else PlatformAPI(network)
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def insights_demographics(
        self, user_ids: Sequence[UserId]
    ) -> Tuple[List[str], List[str], List[str]]:
        """Gender, age bracket and country of each user via the page-insights
        view — the ONE ground-truth read.

        Everything else the crawler collects goes through ``self.api`` so
        privacy censoring and request accounting happen at the API
        boundary.  Demographics are the single documented exemption: the
        paper's page-insights reports aggregated *private* attributes of a
        page's likers (paper footnote 1), so the crawler may read the
        profile columns directly for gender/age/country — and only here.
        Any other ``self._network`` read in this class is a bug.
        """
        return self._network.profiles.demographics(user_ids)

    def _guarded(
        self, endpoint: Callable[[UserId], T], user_id: UserId, failed: List[str], tag: str
    ) -> Optional[T]:
        """Run one API call; on a crawl fault, record the lost field group."""
        try:
            return endpoint(user_id)
        except CrawlFault:
            if tag not in failed:
                failed.append(tag)
            return None

    def crawl_liker(self, user_id: UserId, campaign_ids: List[str]) -> LikerRecord:
        """Crawl one liker's public profile (a one-liker :meth:`crawl_likers`)."""
        return self.crawl_likers({user_id: campaign_ids})[int(user_id)]

    def crawl_likers(
        self,
        liker_campaigns: Dict[UserId, List[str]],
        on_record: Optional[Callable[[LikerRecord], None]] = None,
    ) -> Dict[int, LikerRecord]:
        """Crawl every liker; ``liker_campaigns`` maps liker -> campaign ids.

        Demographics come from the insights reports (always available in
        aggregate); friend and like data go through the platform API, so
        censoring is enforced at the API boundary, not here.  The API
        answers the whole loop from one crawl scope.  A crawl fault on
        any API call yields a partial record rather than an exception:
        the study keeps its campaign tables complete even when individual
        profiles are unreachable.

        ``on_record`` (when given) is called with each record as soon as it
        is crawled — the checkpoint journal's write-ahead hook, so a crash
        mid-crawl loses at most the record in flight.
        """
        likers = sorted(liker_campaigns.items())
        user_ids = [user_id for user_id, _ in likers]
        demographics = zip(*self.insights_demographics(user_ids))
        api = self.api
        records: Dict[int, LikerRecord] = {}
        with self.metrics.span("crawl.likers"), api.crawl_scope(user_ids):
            for (user_id, campaigns), (gender, bracket, country) in zip(likers, demographics):
                failed: List[str] = []
                friends = self._guarded(api.get_friend_list, user_id, failed, "friends")
                declared = self._guarded(
                    api.get_declared_friend_count, user_id, failed, "friends"
                )
                liked_pages = self._guarded(api.get_page_likes, user_id, failed, "likes")
                declared_likes = self._guarded(
                    api.get_declared_like_count, user_id, failed, "likes"
                )
                self.metrics.inc("crawl.likers_total")
                if failed:
                    self.metrics.inc("crawl.likers_partial")
                record = LikerRecord(
                    user_id=int(user_id),
                    gender=gender,
                    age_bracket=bracket,
                    country=country,
                    friend_list_public=friends is not None,
                    declared_friend_count=declared,
                    visible_friend_ids=friends if friends is not None else [],
                    liked_page_ids=liked_pages if liked_pages is not None else [],
                    declared_like_count=declared_likes if declared_likes is not None else 0,
                    campaign_ids=list(campaigns),
                    crawl_status=CRAWL_COMPLETE if not failed else CRAWL_PARTIAL,
                    failed_fields=failed,
                )
                records[int(user_id)] = record
                if on_record is not None:
                    on_record(record)
        return records

    def crawl_baseline(
        self,
        rng: RngStream,
        sample_size: int,
        on_record: Optional[Callable[[BaselineRecord], None]] = None,
    ) -> List[BaselineRecord]:
        """Sample the public directory and record page-like counts.

        Reproduces the paper's baseline: "a random set of 2000 Facebook
        users, extracted from an unbiased sample obtained by randomly
        sampling Facebook public directory".  A sampled user whose count
        cannot be crawled is dropped (a fake zero would skew the baseline
        median downward); the surviving sample stays unbiased because
        faults are independent of user attributes.
        """
        directory = PublicDirectory(self._network)
        sample = directory.sample_users(rng, min(sample_size, len(directory)))
        records: List[BaselineRecord] = []
        with self.metrics.span("crawl.baseline"), self.api.crawl_scope(sample):
            for user_id in sample:
                try:
                    count = self.api.get_declared_like_count(user_id)
                except CrawlFault:
                    self.metrics.inc("crawl.baseline_dropped")
                    continue
                record = BaselineRecord(
                    user_id=int(user_id),
                    declared_like_count=count if count is not None else 0,
                )
                records.append(record)
                if on_record is not None:
                    on_record(record)
        self.metrics.inc("crawl.baseline_sampled", len(records))
        return records

    def recheck_terminations(self, user_ids: Iterable[UserId]) -> List[int]:
        """The month-later follow-up: which likers' profiles are gone.

        A profile that the API no longer serves is a terminated account —
        exactly how the paper could tell (profile pages 404ed).  A crawl
        *fault* is not evidence of termination, so an unreachable profile
        counts as alive and the result stays a lower bound.
        """
        terminated: List[int] = []
        ids = sorted(set(int(u) for u in user_ids))
        with self.metrics.span("crawl.termination_recheck"), self.api.crawl_scope(ids):
            for user_id in ids:
                try:
                    profile = self.api.get_profile(UserId(user_id))
                except CrawlFault:
                    self.metrics.inc("crawl.termination_recheck_unreachable")
                    continue
                if profile is None:
                    terminated.append(user_id)
        self.metrics.inc("crawl.terminated_confirmed", len(terminated))
        return terminated
