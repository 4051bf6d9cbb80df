"""The resilient crawl client: retries, backoff, and circuit breaking.

:class:`ResilientAPI` wraps any read-endpoint provider (a plain
:class:`~repro.osn.api.PlatformAPI` or a
:class:`~repro.osn.faults.FaultyPlatformAPI`) and gives the crawler the
survival kit any production scraper needs:

* **retry with exponential backoff** — transient errors and timeouts are
  retried up to a hard per-request attempt budget, with exponentially
  growing, deterministically jittered virtual delays (simulated minutes,
  accumulated in :class:`~repro.osn.api.RequestStats`, never slept);
* **rate-limit compliance** — a :class:`~repro.osn.api.RateLimited`
  response waits out the platform's ``retry_after`` hint (throttling is
  the platform working, so it never counts toward the circuit breaker);
* **per-endpoint circuit breakers** — enough *consecutive* hard failures
  trip the endpoint open, after which calls fail fast without touching
  the platform until a cooldown's worth of calls has passed and a
  half-open probe is allowed through;
* **truncation recovery** — a truncated list is re-requested; if the
  budget runs out first, the longest partial seen is returned instead of
  nothing (the crawl degrades, the study continues).

Jitter draws come from a dedicated RNG stream and only happen on actual
retries, so a fault-free run consumes no randomness here at all.
"""

from __future__ import annotations

from typing import Callable, ContextManager, Dict, Optional, Sequence, TypeVar

import numpy as np

from repro.osn.api import (
    CrawlTimeout,
    EndpointUnavailable,
    PublicPage,
    PublicProfile,
    RateLimited,
    RequestStats,
    RetryPolicy,
    TransientError,
    TruncatedResponse,
)
from repro.osn.ids import PageId, UserId
from repro.util.rng import RngStream
from repro.util.validation import check_positive, require

T = TypeVar("T")

_NO_PARTIAL = object()


class CircuitBreaker:
    """A clockless per-endpoint breaker: closed → open → half-open.

    There is no wall clock in the crawl (it runs synchronously at a fixed
    simulated time), so the cooldown is counted in *calls swallowed while
    open* rather than seconds.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int, cooldown: int) -> None:
        check_positive(threshold, "threshold")
        check_positive(cooldown, "cooldown")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._swallowed = 0

    def allow(self) -> bool:
        """Whether the next call may go through (may move open → half-open)."""
        if self.state == self.OPEN:
            self._swallowed += 1
            if self._swallowed >= self.cooldown:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        """A call succeeded: close the breaker and reset all counters."""
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._swallowed = 0

    def record_failure(self) -> bool:
        """A hard failure happened; returns True when this trips the breaker."""
        if self.state == self.HALF_OPEN:
            # The probe failed: straight back to open for another cooldown.
            self.state = self.OPEN
            self._swallowed = 0
            return True
        self._consecutive_failures += 1
        if self.state == self.CLOSED and self._consecutive_failures >= self.threshold:
            self.state = self.OPEN
            self._swallowed = 0
            self._consecutive_failures = 0
            return True
        return False

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full breaker state as plain types (state machine + counters)."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "swallowed": self._swallowed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`.

        A resumed crawl must continue exactly where the crashed one stood:
        an open breaker stays open mid-cooldown, a half-open breaker keeps
        its pending probe, and a closed breaker must *not* re-open early
        because its failure streak was forgotten.
        """
        require(
            state["state"] in (self.CLOSED, self.OPEN, self.HALF_OPEN),
            f"unknown breaker state {state['state']!r}",
        )
        self.state = state["state"]
        self._consecutive_failures = int(state["consecutive_failures"])
        self._swallowed = int(state["swallowed"])


class ResilientAPI:
    """Read endpoints with retry, backoff, and circuit breaking.

    Wraps anything implementing the :class:`~repro.osn.api.PlatformAPI`
    read interface.  When every call succeeds first try (e.g. wrapping a
    fault-free API), this layer is a pure pass-through: no RNG draws, no
    extra requests, no counter changes — the determinism contract that
    makes zero-fault runs byte-identical to unwrapped ones.
    """

    def __init__(
        self,
        inner,
        policy: Optional[RetryPolicy] = None,
        rng: Optional[RngStream] = None,
    ) -> None:
        self._inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = rng
        self._breakers: Dict[str, CircuitBreaker] = {}

    @property
    def stats(self) -> RequestStats:
        """Shared request/fault/resilience counters (innermost API's)."""
        return self._inner.stats

    def breaker(self, endpoint: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``endpoint``."""
        if endpoint not in self._breakers:
            self._breakers[endpoint] = CircuitBreaker(
                self.policy.breaker_threshold, self.policy.breaker_cooldown
            )
        return self._breakers[endpoint]

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> dict:
        """Per-endpoint breaker states plus the jitter stream state."""
        state: dict = {
            "breakers": {
                endpoint: self._breakers[endpoint].state_dict()
                for endpoint in sorted(self._breakers)
            }
        }
        if self._rng is not None:
            state["rng"] = self._rng.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore breakers (created as needed) and the jitter stream."""
        self._breakers = {}
        for endpoint in sorted(state["breakers"]):
            self.breaker(endpoint).load_state_dict(state["breakers"][endpoint])
        if self._rng is not None and "rng" in state:
            self._rng.load_state_dict(state["rng"])

    # -- retry engine -------------------------------------------------------------

    def _jittered(self, delay: float) -> float:
        if self._rng is None or self.policy.jitter == 0.0:
            return delay
        return delay * (1.0 + self.policy.jitter * self._rng.uniform(-1.0, 1.0))

    def _call(self, endpoint: str, thunk: Callable[[], T]) -> T:
        policy = self.policy
        breaker = self.breaker(endpoint)
        stats = self.stats
        # Per-endpoint resilience counters land next to the aggregate
        # RequestStats views in the same registry, so the run manifest can
        # show *which* endpoint burned the retry budget.
        metrics = stats.metrics
        best_partial = _NO_PARTIAL
        for attempt in range(1, policy.max_attempts + 1):
            if not breaker.allow():
                stats.breaker_fastfails += 1
                stats.failures += 1
                metrics.inc(f"osn.endpoint.{endpoint}.breaker_fastfails")
                raise EndpointUnavailable(f"{endpoint}: circuit open")
            if attempt > 1:
                stats.retries += 1
                metrics.inc(f"osn.endpoint.{endpoint}.retries")
            try:
                result = thunk()
            except RateLimited as fault:
                # Throttling is the platform functioning; honour the hint
                # and do not count it against the breaker.
                stats.backoff_minutes += float(fault.retry_after)
                continue
            except (TransientError, CrawlTimeout):
                if breaker.record_failure():
                    stats.breaker_trips += 1
                    metrics.inc(f"osn.endpoint.{endpoint}.breaker_trips")
                    metrics.trace_event("breaker_trip", endpoint=endpoint)
                if attempt < policy.max_attempts:
                    stats.backoff_minutes += self._jittered(policy.backoff_for(attempt))
                continue
            except TruncatedResponse as fault:
                # A broken pagination: keep the longest prefix seen and
                # re-request.  Not a platform failure, so no breaker hit.
                if best_partial is _NO_PARTIAL or _partial_size(
                    fault.partial
                ) > _partial_size(best_partial):
                    best_partial = fault.partial
                if attempt < policy.max_attempts:
                    stats.backoff_minutes += self._jittered(policy.backoff_for(attempt))
                continue
            breaker.record_success()
            return result
        stats.failures += 1
        metrics.inc(f"osn.endpoint.{endpoint}.failures")
        if best_partial is not _NO_PARTIAL:
            # Graceful degradation: partial data beats no data.
            metrics.inc(f"osn.endpoint.{endpoint}.partial_recoveries")
            return best_partial  # type: ignore[return-value]
        raise EndpointUnavailable(
            f"{endpoint}: retry budget of {policy.max_attempts} attempts exhausted"
        )

    # -- read endpoints (same interface as PlatformAPI) ---------------------------

    def crawl_scope(self, user_ids: Sequence[UserId]) -> ContextManager[None]:
        """The inner API's scope; opening it touches no breaker or stream."""
        return self._inner.crawl_scope(user_ids)

    def get_profile(self, user_id: UserId) -> Optional[PublicProfile]:
        """Public profile fields, with retries."""
        return self._call("get_profile", lambda: self._inner.get_profile(user_id))

    def get_friend_list(self, user_id: UserId) -> Optional[np.ndarray]:
        """The public friend list, with retries (may be a partial prefix)."""
        return self._call(
            "get_friend_list", lambda: self._inner.get_friend_list(user_id)
        )

    def get_declared_friend_count(self, user_id: UserId) -> Optional[int]:
        """The declared friend count, with retries."""
        return self._call(
            "get_declared_friend_count",
            lambda: self._inner.get_declared_friend_count(user_id),
        )

    def get_page_likes(self, user_id: UserId) -> Optional[np.ndarray]:
        """The liked-page list, with retries (may be a partial prefix)."""
        return self._call(
            "get_page_likes", lambda: self._inner.get_page_likes(user_id)
        )

    def get_declared_like_count(self, user_id: UserId) -> Optional[int]:
        """The declared like count, with retries."""
        return self._call(
            "get_declared_like_count",
            lambda: self._inner.get_declared_like_count(user_id),
        )

    def get_page(self, page_id: PageId) -> PublicPage:
        """A page's public view, with retries (liker list may be partial)."""
        return self._call("get_page", lambda: self._inner.get_page(page_id))


def _partial_size(partial) -> int:
    """How much of a truncated response arrived (for keeping the longest)."""
    if isinstance(partial, PublicPage):
        return len(partial.liker_ids)
    if partial is None:
        return 0
    return len(partial)
