"""Deterministic fault injection for the crawl surface.

The paper's measurement ran against a hostile real-world platform: Selenium
crawls died, requests were throttled, profile pages 404ed mid-crawl, and
long liker lists arrived one page at a time.  The simulated
:class:`repro.osn.api.PlatformAPI` is perfectly reliable, so this module
adds the missing unreliability back — *deterministically*.  A
:class:`FaultyPlatformAPI` wraps the real API behind the same
read-endpoint interface and injects configurable faults:

* **transient errors** — the request simply fails this time;
* **rate limits** — the platform says back off, with a ``retry_after``
  hint in simulated minutes;
* **timeouts** — simulated latency exceeded the client's patience;
* **truncated responses** — a paginated liker/friend list broke partway,
  the fault carries the partial prefix;
* **permanent profile failures** — a fixed, seed-determined subset of
  users whose profile endpoints never succeed (the 404-mid-crawl case).

Determinism contract
--------------------
* Faults draw from a **dedicated** :class:`~repro.util.rng.RngStream`
  child, so injecting faults never perturbs world generation, delivery,
  or any other subsystem's randomness.
* With a *null* profile (all rates zero) the injector draws **nothing**
  and passes every call through untouched — a wrapped zero-fault study is
  byte-identical to an unwrapped one (pinned by
  ``tests/test_chaos_smoke.py``).
* With a non-null profile, every charged request draws exactly one
  uniform (plus one integer draw when the rate-limit branch fires), so
  fault sequences are reproducible call-for-call given the seed.
* Permanent failures are keyed by hashing the injector seed with the user
  id (no stream consumption), so a broken profile is broken on every
  retry and across every endpoint — retrying cannot revive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ContextManager, Optional, Sequence, Tuple

import numpy as np

# The fault family lives in repro.osn.api, where the crawler and the
# monitor catch it without loading this module; it is re-exported here.
from repro.osn.api import (
    CrawlFault,
    CrawlTimeout,
    EndpointUnavailable,
    PlatformAPI,
    PublicPage,
    PublicProfile,
    RateLimited,
    RequestStats,
    TransientError,
    TruncatedResponse,
)
from repro.osn.ids import PageId, UserId
from repro.util.rng import RngStream, derive_seed
from repro.util.validation import require

_PERMAFAIL_RESOLUTION = 2 ** 32


@dataclass(slots=True, frozen=True)
class FaultProfile:
    """Per-request fault rates and shapes for one study.

    The four rate fields partition each request's single uniform draw:
    ``transient_error_rate + rate_limit_rate + timeout_rate +
    truncation_rate`` must not exceed 1.  Truncation only applies to list
    endpoints (``get_friend_list``, ``get_page_likes``, ``get_page``);
    on scalar endpoints its band resolves to success.

    ``profile_permafail_rate`` is the fraction of users whose profile
    endpoints *always* fail (hash-selected from the seed, stable across
    retries) — the paper's profiles that 404ed mid-crawl.  Page polling is
    never permanently broken: honeypot pages are the study's own property.
    """

    transient_error_rate: float = 0.0
    rate_limit_rate: float = 0.0
    timeout_rate: float = 0.0
    truncation_rate: float = 0.0
    profile_permafail_rate: float = 0.0
    retry_after_range: Tuple[int, int] = (1, 15)
    truncation_keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "transient_error_rate",
            "rate_limit_rate",
            "timeout_rate",
            "truncation_rate",
            "profile_permafail_rate",
        ):
            value = getattr(self, name)
            require(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")
        total = (
            self.transient_error_rate
            + self.rate_limit_rate
            + self.timeout_rate
            + self.truncation_rate
        )
        require(total <= 1.0, f"per-request fault rates sum to {total} > 1")
        low, high = self.retry_after_range
        require(0 < low <= high, f"invalid retry_after_range {self.retry_after_range}")
        require(
            0.0 <= self.truncation_keep_fraction < 1.0,
            "truncation_keep_fraction must be in [0, 1)",
        )

    @property
    def is_null(self) -> bool:
        """True when no fault can ever fire (the pass-through profile)."""
        return (
            self.transient_error_rate == 0.0
            and self.rate_limit_rate == 0.0
            and self.timeout_rate == 0.0
            and self.truncation_rate == 0.0
            and self.profile_permafail_rate == 0.0
        )

    @staticmethod
    def none() -> "FaultProfile":
        """All rates zero: wraps the API without ever injecting."""
        return FaultProfile()

    @staticmethod
    def default() -> "FaultProfile":
        """The documented chaos profile used by ``make chaos``.

        Roughly one request in eight fails somehow: 5% transient, 2%
        throttled, 2% timed out, 3% truncated lists, and 1% of profiles
        permanently unreachable.
        """
        return FaultProfile(
            transient_error_rate=0.05,
            rate_limit_rate=0.02,
            timeout_rate=0.02,
            truncation_rate=0.03,
            profile_permafail_rate=0.01,
        )


#: Endpoints whose responses are lists and can therefore be truncated.
_LIST_ENDPOINTS = frozenset({"get_friend_list", "get_page_likes", "get_page"})

#: Endpoints scoped to a user profile (subject to permanent failures).
_USER_ENDPOINTS = frozenset(
    {
        "get_profile",
        "get_friend_list",
        "get_declared_friend_count",
        "get_page_likes",
        "get_declared_like_count",
    }
)


class FaultyPlatformAPI:
    """A :class:`PlatformAPI` wrapper that injects deterministic faults.

    Implements the same read-endpoint interface as the API it wraps.  The
    inner call always runs first — a failed request still consumed the
    crawl budget and is still charged to :class:`RequestStats` — then the
    injector decides whether the *response* is lost to a fault.
    """

    def __init__(self, inner: PlatformAPI, profile: FaultProfile, rng: RngStream) -> None:
        self._inner = inner
        self.profile = profile
        self._rng = rng

    @property
    def stats(self) -> RequestStats:
        """Shared request/fault counters (live on the innermost API)."""
        return self._inner.stats

    # -- injection machinery ------------------------------------------------------

    def _is_permafailed(self, user_id: UserId) -> bool:
        rate = self.profile.profile_permafail_rate
        if rate <= 0.0:
            return False
        bucket = derive_seed(self._rng.seed, f"permafail:{int(user_id)}")
        return (bucket % _PERMAFAIL_RESOLUTION) / _PERMAFAIL_RESOLUTION < rate

    def _truncate(self, endpoint: str, result):
        keep = self.profile.truncation_keep_fraction
        if endpoint == "get_page":
            cut = int(len(result.liker_ids) * keep)
            return PublicPage(
                page_id=result.page_id,
                name=result.name,
                description=result.description,
                like_count=result.like_count,  # the counter survives pagination
                liker_ids=result.liker_ids[:cut],
            )
        return result[: int(len(result) * keep)]

    def _maybe_fault(self, endpoint: str, result, user_id: Optional[UserId]):
        profile = self.profile
        if profile.is_null:
            return result  # no draw: the stream stays untouched
        stats = self.stats
        # Per-endpoint injected-fault counters, next to the aggregates.
        metrics = stats.metrics
        if (
            user_id is not None
            and endpoint in _USER_ENDPOINTS
            and self._is_permafailed(user_id)
        ):
            stats.transient_errors += 1
            metrics.inc(f"osn.endpoint.{endpoint}.faults_injected")
            raise TransientError(f"{endpoint}({int(user_id)}) unreachable")
        draw = self._rng.random()
        edge = profile.transient_error_rate
        if draw < edge:
            stats.transient_errors += 1
            metrics.inc(f"osn.endpoint.{endpoint}.faults_injected")
            raise TransientError(f"{endpoint} failed")
        edge += profile.rate_limit_rate
        if draw < edge:
            low, high = profile.retry_after_range
            retry_after = self._rng.randint(low, high + 1)
            stats.rate_limited += 1
            metrics.inc(f"osn.endpoint.{endpoint}.faults_injected")
            raise RateLimited(retry_after)
        edge += profile.timeout_rate
        if draw < edge:
            stats.timeouts += 1
            metrics.inc(f"osn.endpoint.{endpoint}.faults_injected")
            raise CrawlTimeout(f"{endpoint} timed out")
        edge += profile.truncation_rate
        if (
            draw < edge
            and endpoint in _LIST_ENDPOINTS
            and (isinstance(result, PublicPage) or (result is not None and len(result)))
        ):
            truncated = self._truncate(endpoint, result)
            stats.truncated += 1
            metrics.inc(f"osn.endpoint.{endpoint}.faults_injected")
            raise TruncatedResponse(truncated)
        return result

    # -- read endpoints (same interface as PlatformAPI) ---------------------------

    def crawl_scope(self, user_ids: Sequence[UserId]) -> ContextManager[None]:
        """The inner API's scope; opening it draws and charges nothing."""
        return self._inner.crawl_scope(user_ids)

    def get_profile(self, user_id: UserId) -> Optional[PublicProfile]:
        """Public profile fields, subject to injected faults."""
        result = self._inner.get_profile(user_id)
        return self._maybe_fault("get_profile", result, user_id)

    def get_friend_list(self, user_id: UserId) -> Optional[np.ndarray]:
        """The public friend list, subject to injected faults."""
        result = self._inner.get_friend_list(user_id)
        return self._maybe_fault("get_friend_list", result, user_id)

    def get_declared_friend_count(self, user_id: UserId) -> Optional[int]:
        """The declared friend count, subject to injected faults."""
        result = self._inner.get_declared_friend_count(user_id)
        return self._maybe_fault("get_declared_friend_count", result, user_id)

    def get_page_likes(self, user_id: UserId) -> Optional[np.ndarray]:
        """The liked-page list, subject to injected faults."""
        result = self._inner.get_page_likes(user_id)
        return self._maybe_fault("get_page_likes", result, user_id)

    def get_declared_like_count(self, user_id: UserId) -> Optional[int]:
        """The declared like count, subject to injected faults."""
        result = self._inner.get_declared_like_count(user_id)
        return self._maybe_fault("get_declared_like_count", result, user_id)

    def get_page(self, page_id: PageId) -> PublicPage:
        """A page's public view, subject to injected faults."""
        result = self._inner.get_page(page_id)
        return self._maybe_fault("get_page", result, None)
