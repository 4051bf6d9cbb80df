"""The platform's fraud-enforcement (account termination) process.

A month after the campaigns the paper re-checked liker accounts and found
terminations concentrated on the burst farms (SocialFormula 20, AuthenticLikes
44) with almost none for the stealthy BoostLikes (1) — Table 1's last column
and the Section 5 discussion.

Facebook's real detector is unobservable, so we model it the way the paper
interprets it: a per-account termination hazard that grows with how "bot
like" the account's observable behaviour is.  The hazard combines a base
rate per behavioural class with a multiplier for accounts that delivered
likes inside high-volume bursts — exactly the pattern the paper says is
"easy to detect".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

import numpy as np

from repro.osn.columns import sorted_unique
from repro.osn.ids import PageId, UserId
from repro.osn.network import SocialNetwork
from repro.util.rng import RngStream
from repro.util.timeutil import HOUR
from repro.util.validation import check_fraction, check_positive, require


@dataclass(slots=True)
class TerminationPolicy:
    """Hazard model for the platform's enforcement sweep.

    Attributes
    ----------
    base_rates:
        Termination probability by ground-truth cohort.  Keys are cohort
        labels (``organic``, ``clickworker``, ``farm:<name>``); missing
        cohorts fall back to ``default_rate``.
    burst_multiplier:
        Applied when the account delivered a honeypot like inside a burst
        window (>= ``burst_threshold`` likes on the same page within
        ``burst_window`` minutes).
    purge_likes:
        Whether enforcement strips a terminated account's likes from page
        liker lists (the disappearing likes the paper's future work asks to
        observe).
    """

    base_rates: Dict[str, float] = field(default_factory=dict)
    default_rate: float = 0.001
    burst_multiplier: float = 3.0
    burst_window: int = 2 * HOUR
    burst_threshold: int = 50
    purge_likes: bool = True

    def __post_init__(self) -> None:
        for cohort, rate in self.base_rates.items():
            check_fraction(rate, f"base rate for {cohort!r}")
        check_fraction(self.default_rate, "default_rate")
        check_positive(self.burst_multiplier, "burst_multiplier")
        check_positive(self.burst_window, "burst_window")
        check_positive(self.burst_threshold, "burst_threshold")

    def hazard(self, cohort: str, liked_in_burst: bool) -> float:
        """Termination probability for one account."""
        rate = self.base_rates.get(cohort, self.default_rate)
        if liked_in_burst:
            rate = min(1.0, rate * self.burst_multiplier)
        return rate


class TerminationSweep:
    """Applies a :class:`TerminationPolicy` to honeypot likers.

    The sweep looks only at accounts that liked one of the given pages
    (mirroring the paper, which could only observe its own likers), finds
    which of them liked inside a burst, and terminates each with its hazard
    probability.
    """

    def __init__(self, policy: TerminationPolicy) -> None:
        self.policy = policy

    def burst_likers(self, network: SocialNetwork, page_id: PageId) -> Set[UserId]:
        """Likers of ``page_id`` whose like fell in a high-volume window.

        A sliding window of ``policy.burst_window`` minutes is swept over the
        page's like timestamps; any like inside a window containing at least
        ``policy.burst_threshold`` likes counts as burst participation.
        """
        users = network.likes.page_user_ids_array(page_id)
        if users.shape[0] == 0:
            return set()
        times = np.asarray(network.likes.page_like_times(page_id), dtype=np.int64)
        # For each event r the window start is the first index l with
        # times[r] - times[l] <= window (times are non-decreasing), i.e. a
        # searchsorted for times[r] - window.  An event is flagged when it
        # falls inside [l, r] of ANY qualifying window; the union of those
        # intervals is painted with a difference array instead of a
        # per-window inner loop.
        n = times.shape[0]
        lefts = np.searchsorted(times, times - self.policy.burst_window, side="left")
        rights = np.arange(n, dtype=np.int64)
        qualifying = rights - lefts + 1 >= self.policy.burst_threshold
        if not bool(np.any(qualifying)):
            return set()
        coverage = np.zeros(n + 1, dtype=np.int64)
        np.add.at(coverage, lefts[qualifying], 1)
        np.add.at(coverage, rights[qualifying] + 1, -1)
        flagged_mask = np.cumsum(coverage[:-1]) > 0
        # repro-lint: allow-DET003 run() sorts it before use; tests read membership and len only
        return set(users[flagged_mask].tolist())

    def run(
        self,
        network: SocialNetwork,
        page_ids: Iterable[PageId],
        rng: RngStream,
        time: int,
    ) -> List[UserId]:
        """Terminate accounts among the pages' likers; returns terminated ids.

        Live candidates draw one uniform each in ascending id order, as a
        per-candidate Bernoulli loop would, but the hazards and the draws
        are one columnar pass.
        """
        require(time >= 0, "sweep time must be >= 0")
        burst_flagged: Set[UserId] = set()
        likers: List[UserId] = []
        for page_id in page_ids:
            likers.extend(network.page_liker_ids(page_id))
            burst_flagged.update(self.burst_likers(network, page_id))
        profiles = network.profiles
        candidates = sorted_unique(np.asarray(likers, dtype=np.int64))
        rows = candidates - profiles.id_base
        live = profiles.alive_mask()[rows]
        candidates, rows = candidates[live], rows[live]
        if candidates.shape[0] == 0:
            return []
        # one hazard per (cohort, burst) pair, looked up per candidate
        codes, cohort = np.unique(profiles.cohort_codes()[rows], return_inverse=True)
        hazards = np.array(
            [
                [self.policy.hazard(name, False), self.policy.hazard(name, True)]
                for name in map(profiles.strings.value, codes.tolist())
            ]
        )
        in_burst = np.isin(candidates, np.array(sorted(burst_flagged), dtype=np.int64))
        probability = np.where(in_burst, hazards[cohort, 1], hazards[cohort, 0])
        hit = rng.generator.random(candidates.shape[0]) < probability
        terminated = candidates[hit].tolist()
        for user_id in terminated:
            network.terminate_account(user_id, time, purge_likes=self.policy.purge_likes)
        return terminated
