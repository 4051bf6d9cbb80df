"""A read-only platform API: what a logged-out scraper can fetch.

The paper crawled Facebook with Selenium — every fact it collected came
through the platform's public surface.  This module is that surface for the
simulated network: typed read endpoints that enforce
:class:`repro.osn.privacy.PrivacyPolicy` and count requests, so crawler
code *cannot* accidentally read ground truth, and studies can report how
much crawling they did (the paper crawled 13 pages every 2 hours for
weeks plus ~6k profiles).

The failures a crawl can see (:class:`CrawlFault` and its subclasses) and
the resilient client's :class:`RetryPolicy` are defined here too: the
crawler and the monitor catch the first and every study config holds the
second, while the fault injector (:mod:`repro.osn.faults`) and the
resilient client (:mod:`repro.osn.resilient`) load only under a fault
profile.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ContextManager, Iterator, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.osn.ids import PageId, UserId
from repro.osn.network import SocialNetwork
from repro.osn.profileread import ProfileRead
from repro.util.validation import check_positive, require


class RequestBudgetExceeded(RuntimeError):
    """Raised when the crawler exceeds its configured request budget."""


class CrawlScopeError(RuntimeError):
    """A crawl scope was misused: nested, written under, or held at a barrier."""


class CrawlFault(RuntimeError):
    """Base class of every injected crawl failure."""


class TransientError(CrawlFault):
    """The request failed this time; an identical retry may succeed."""


class RateLimited(CrawlFault):
    """The platform throttled the client.

    ``retry_after`` is the platform's hint, in simulated minutes.
    """

    def __init__(self, retry_after: int) -> None:
        super().__init__(f"rate limited; retry after {retry_after} min")
        self.retry_after = int(retry_after)


class CrawlTimeout(CrawlFault):
    """Simulated latency exceeded the client timeout."""


class TruncatedResponse(CrawlFault):
    """A paginated list response broke partway through.

    ``partial`` holds what arrived before the break (a prefix of the full
    response); a retry re-paginates from the start.
    """

    def __init__(self, partial) -> None:
        super().__init__("response truncated mid-pagination")
        self.partial = partial


class EndpointUnavailable(CrawlFault):
    """The resilient client gave up on this request.

    Raised after the retry budget is exhausted, or immediately when the
    endpoint's circuit breaker is open.
    """


@dataclass(slots=True)
class RetryPolicy:
    """Backoff and circuit-breaker parameters of the resilient client.

    Attributes
    ----------
    max_attempts:
        Hard per-request budget, first try included.
    base_backoff / backoff_factor / max_backoff:
        Exponential backoff in simulated minutes: retry *n* waits
        ``min(max_backoff, base_backoff * backoff_factor**(n-1))``.
    jitter:
        Each backoff is scaled by a uniform factor in ``[1-jitter,
        1+jitter]`` drawn from the client's own RNG stream.
    breaker_threshold:
        Consecutive hard failures (transient/timeout) that trip an
        endpoint's breaker open.
    breaker_cooldown:
        Fast-failed calls an open breaker swallows before letting a
        half-open probe through.
    """

    max_attempts: int = 4
    base_backoff: float = 2.0
    backoff_factor: float = 2.0
    max_backoff: float = 60.0
    jitter: float = 0.25
    breaker_threshold: int = 5
    breaker_cooldown: int = 20

    def __post_init__(self) -> None:
        check_positive(self.max_attempts, "max_attempts")
        check_positive(self.breaker_threshold, "breaker_threshold")
        check_positive(self.breaker_cooldown, "breaker_cooldown")
        require(self.base_backoff > 0, "base_backoff must be positive")
        require(self.backoff_factor >= 1, "backoff_factor must be >= 1")
        require(self.max_backoff >= self.base_backoff,
                "max_backoff must be >= base_backoff")
        require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")

    def backoff_for(self, retry_number: int) -> float:
        """The un-jittered delay before retry ``retry_number`` (1-based)."""
        return min(
            self.max_backoff,
            self.base_backoff * self.backoff_factor ** (retry_number - 1),
        )


def _stat_view(key: str, cast):
    """A RequestStats attribute backed by a registry counter."""

    def getter(self) -> int:
        return cast(self.metrics.value(key))

    def setter(self, value) -> None:
        self.metrics.set_counter(key, value)

    return property(getter, setter, doc=f"View over the {key!r} counter.")


class RequestStats:
    """Crawl-health accounting: request counts plus failure/retry counters.

    The first four attributes count requests by kind (every attempt
    charges, including ones that later fail).  The remaining counters are
    written by the fault-injection and resilience layers
    (:mod:`repro.osn.faults`, :mod:`repro.osn.resilient`) and stay zero on
    a fault-free crawl, so studies can report exactly how hostile the
    crawl surface was and what surviving it cost.

    Every attribute is a *view* over a named counter in a
    :class:`~repro.obs.metrics.MetricsRegistry` — pass the study's shared
    registry and the crawl counters land in the run manifest next to
    every other subsystem's; pass nothing and the stats keep a private
    registry, preserving the original standalone behaviour.  Reads and
    writes (``stats.retries += 1``) work exactly as they did when these
    were dataclass fields.
    """

    #: attribute name -> (registry counter key, cast on read)
    COUNTER_KEYS = {
        "profile": "osn.requests.profile",
        "friend_list": "osn.requests.friend_list",
        "page_likes": "osn.requests.page_likes",
        "page": "osn.requests.page",
        # -- injected faults (written by FaultyPlatformAPI) --
        "transient_errors": "osn.faults.transient_errors",
        "rate_limited": "osn.faults.rate_limited",
        "timeouts": "osn.faults.timeouts",
        "truncated": "osn.faults.truncated",
        # -- resilience outcomes (written by ResilientAPI) --
        "retries": "osn.resilience.retries",
        "failures": "osn.resilience.failures",
        "breaker_trips": "osn.resilience.breaker_trips",
        "breaker_fastfails": "osn.resilience.breaker_fastfails",
        "backoff_minutes": "osn.resilience.backoff_minutes",
    }

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        # A NullMetricsRegistry would silently discard request accounting
        # that predates the observability layer, so default to a real one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def total(self) -> int:
        """All requests combined."""
        return self.profile + self.friend_list + self.page_likes + self.page

    @property
    def faults_injected(self) -> int:
        """All injected faults combined."""
        return self.transient_errors + self.rate_limited + self.timeouts + self.truncated

    def as_dict(self) -> dict:
        """All counters by attribute name (stable order, for reports)."""
        return {name: getattr(self, name) for name in self.COUNTER_KEYS}

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"RequestStats({body})"


for _name, _key in RequestStats.COUNTER_KEYS.items():
    setattr(
        RequestStats,
        _name,
        _stat_view(_key, float if _name == "backoff_minutes" else int),
    )
del _name, _key


@dataclass(slots=True, frozen=True)
class PublicProfile:
    """The publicly visible fields of a profile."""

    user_id: int
    gender: str
    age_bracket: str
    country: str
    friend_list_public: bool


@dataclass(slots=True, frozen=True)
class PublicPage:
    """The publicly visible fields of a page."""

    page_id: int
    name: str
    description: str
    like_count: int
    liker_ids: tuple


class ReadEndpoints(Protocol):
    """The crawl surface: everything a logged-out scraper can request.

    :class:`PlatformAPI` is the reliable base implementation;
    :class:`repro.osn.faults.FaultyPlatformAPI` injects deterministic
    faults behind the same interface, and
    :class:`repro.osn.resilient.ResilientAPI` adds retry/backoff and
    circuit breaking on top of either.  Crawler-side code (the profile
    crawler, the page monitor) depends only on this protocol, so the
    whole fault stack is swappable without touching the instrument.
    """

    stats: RequestStats

    def crawl_scope(self, user_ids: Sequence[UserId]) -> ContextManager[None]: ...

    def get_profile(self, user_id: UserId) -> Optional[PublicProfile]: ...

    def get_friend_list(self, user_id: UserId) -> Optional[np.ndarray]: ...

    def get_declared_friend_count(self, user_id: UserId) -> Optional[int]: ...

    def get_page_likes(self, user_id: UserId) -> Optional[np.ndarray]: ...

    def get_declared_like_count(self, user_id: UserId) -> Optional[int]: ...

    def get_page(self, page_id: PageId) -> PublicPage: ...


@dataclass(slots=True)
# repro-lint: allow-CKPT001 its mutable fields are stats, a view over the study's MetricsRegistry checkpointed via the request_stats/metrics keys of the study state_dict, and the crawl scope's read, which lives inside one crawl call and never spans a barrier (HoneypotStudy._checkpoint refuses an open scope)
class PlatformAPI:
    """Privacy-enforcing read endpoints over a :class:`SocialNetwork`.

    ``max_requests`` optionally caps total calls (a crawl budget); exceeding
    it raises :class:`RequestBudgetExceeded` so studies fail loudly instead
    of silently under-crawling.

    The five profile endpoints answer from a columnar
    :class:`~repro.osn.profileread.ProfileRead`: the one
    :meth:`crawl_scope` holds for the users a crawl loop requests, or a
    one-user read for any other request.  Either way each call charges
    once, before it reads.
    """

    network: SocialNetwork
    max_requests: Optional[int] = None
    stats: RequestStats = field(default_factory=RequestStats)
    _scope: Optional[ProfileRead] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_requests is not None:
            check_positive(self.max_requests, "max_requests")

    def _charge(self, kind: str) -> None:
        stats = self.stats
        stats.metrics.inc(RequestStats.COUNTER_KEYS[kind])
        if self.max_requests is not None and stats.total > self.max_requests:
            raise RequestBudgetExceeded(
                f"request budget of {self.max_requests} exceeded"
            )

    # -- crawl scopes -------------------------------------------------------------

    @contextmanager
    def crawl_scope(self, user_ids: Sequence[UserId]) -> Iterator[None]:
        """Answer profile requests for ``user_ids`` from one columnar read.

        Inside the ``with`` block a profile request for one of these
        users is a table lookup; it charges, and passes through any
        fault and retry layers above, exactly as it would outside.
        Scopes do not nest.  The read is a snapshot, so the scope raises
        :class:`CrawlScopeError` on exit if a like, removal, friendship,
        account or termination was written inside it; left by an
        exception, it drops the read and lets the exception through.
        """
        if self._scope is not None:
            raise CrawlScopeError("crawl scopes do not nest")
        marks = self.network.write_marks()
        self._scope = ProfileRead(self.network, user_ids)
        try:
            yield
        finally:
            self._scope = None
        if self.network.write_marks() != marks:
            raise CrawlScopeError("the network was written inside a crawl scope")

    @property
    def in_crawl_scope(self) -> bool:
        """Whether a :meth:`crawl_scope` is open."""
        return self._scope is not None

    def _read(self, user_id: UserId) -> Tuple[ProfileRead, int]:
        """The scope's read and row for ``user_id``, else a one-user read."""
        scope = self._scope
        if scope is not None:
            row = scope.row_of.get(user_id)
            if row is not None:
                return scope, row
        return ProfileRead(self.network, [user_id]), 0

    # -- profile endpoints --------------------------------------------------------

    def get_profile(self, user_id: UserId) -> Optional[PublicProfile]:
        """Public profile fields; None when the account is gone."""
        self._charge("profile")
        read, row = self._read(user_id)
        if not read.alive[row]:
            return None
        return PublicProfile(
            user_id=int(user_id),
            gender=read.genders[row],
            age_bracket=read.brackets[row],
            country=read.countries[row],
            # a live account's friend list is visible exactly when public
            friend_list_public=read.friends_visible[row],
        )

    def get_friend_list(self, user_id: UserId) -> Optional[np.ndarray]:
        """The friend list as a sorted int32 array if public, else None
        (private or terminated)."""
        self._charge("friend_list")
        read, row = self._read(user_id)
        if not read.friends_visible[row]:
            return None
        return read.friend_list(row)

    def get_declared_friend_count(self, user_id: UserId) -> Optional[int]:
        """The count shown on a public friend list, else None when gone."""
        self._charge("friend_list")
        read, row = self._read(user_id)
        if not read.friends_visible[row]:
            return None
        return read.declared_friend_count(row)

    def get_page_likes(self, user_id: UserId) -> Optional[np.ndarray]:
        """Pages the user likes (public in 2014) as a sorted int32 array,
        else None when gone."""
        self._charge("page_likes")
        read, row = self._read(user_id)
        if not read.likes_visible[row]:
            return None
        return read.liked_pages(row)

    def get_declared_like_count(self, user_id: UserId) -> Optional[int]:
        """Total like count on the profile, else None when gone."""
        self._charge("page_likes")
        read, row = self._read(user_id)
        if not read.likes_visible[row]:
            return None
        return read.declared_like_count(row)

    # -- page endpoints -----------------------------------------------------------

    def get_page(self, page_id: PageId) -> PublicPage:
        """A page's public view, including its current liker list."""
        self._charge("page")
        page = self.network.page(page_id)
        likers = self.network.page_liker_ids(page_id)
        return PublicPage(
            page_id=int(page_id),
            name=page.name,
            description=page.description,
            like_count=len(likers),
            liker_ids=tuple(likers),
        )
