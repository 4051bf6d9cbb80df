"""The segmented page universe.

Real Facebook has millions of pages with strong locality: an Egyptian teen
and a US retiree share almost no liked pages except the globally popular
ones.  A small simulated universe loses that structure — unions of liked
pages saturate and every campaign looks identical in Figure 5a.  To preserve
the paper's similarity structure at test scale, the page universe is
segmented:

* **global** — pages popular everywhere (the shared mass every cohort
  samples a little of),
* **regional** — per-country segments (drives differentiation between
  campaigns targeting different countries),
* **spam** — the like-fraud ecosystem's job pages.  Spam is further split
  into a shared "exchange" segment (any fraud account may work those jobs —
  this drives the farm/ads overlap the paper reports) and per-operator
  segments (each farm's own customer base — this keeps different farms'
  page sets distinguishable).

Each cohort samples its likes with a :class:`LikeMix` over the segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.osn.ids import PageId
from repro.util.distributions import (
    interpolate_counts,
    weighted_sample_positive,
    zipf_weights,
)
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, require


@dataclass(slots=True, frozen=True)
class LikeMix:
    """How a cohort splits its page likes across universe segments.

    Fractions must sum to at most 1; any remainder goes to the global
    segment.
    """

    global_frac: float
    regional_frac: float
    spam_frac: float

    def __post_init__(self) -> None:
        check_fraction(self.global_frac, "global_frac")
        check_fraction(self.regional_frac, "regional_frac")
        check_fraction(self.spam_frac, "spam_frac")
        require(
            self.global_frac + self.regional_frac + self.spam_frac <= 1.0 + 1e-9,
            "like-mix fractions must sum to <= 1",
        )

    def counts(self, total: int) -> Dict[str, int]:
        """Integer per-segment counts for ``total`` likes.

        Cached per ``(mix, total)``: the generators call this once per user
        over a handful of distinct totals, so the largest-remainder rounding
        runs a few hundred times instead of tens of thousands.
        """
        parts = _mix_counts(self, total)
        return {"global": parts[0], "regional": parts[1], "spam": parts[2]}


@lru_cache(maxsize=None)
def _mix_counts(mix: "LikeMix", total: int) -> Tuple[int, int, int]:
    remainder = max(0.0, 1.0 - mix.regional_frac - mix.spam_frac)
    parts = interpolate_counts(total, [remainder, mix.regional_frac, mix.spam_frac])
    return (parts[0], parts[1], parts[2])


#: Default cohort mixes (calibration for Figure 5a's block structure).
ORGANIC_MIX = LikeMix(global_frac=0.4, regional_frac=0.6, spam_frac=0.0)
CLICKWORKER_MIX = LikeMix(global_frac=0.45, regional_frac=0.30, spam_frac=0.25)
FARM_MIX = LikeMix(global_frac=0.30, regional_frac=0.40, spam_frac=0.30)
STEALTH_FARM_MIX = LikeMix(global_frac=0.45, regional_frac=0.45, spam_frac=0.10)


#: The spam segment every fraud account can draw from.
SHARED_SPAM_KEY = "exchange"

#: Cap on uniforms materialised per batched-sampling chunk (2 MB); a
#: stacked group's gathered keys lie in one chunk, so it bounds them too.
_DRAW_CHUNK = 2**18

#: Default per-operator spam segments.
DEFAULT_SPAM_KEYS = ("clickworker", "socialformula", "alms", "boostlikes")

#: One sample of a user's plan: ``(segment key, segment, weights, take)``.
_Sample = Tuple[tuple, np.ndarray, np.ndarray, int]

#: A user's plan with its uniform count and its page count.
_UserPlan = Tuple[List[_Sample], int, int]


class PageUniverse:
    """Segmented page-id pools with Zipf popularity inside each segment."""

    def __init__(
        self,
        global_pages: Sequence[PageId],
        regional_pages: Dict[str, Sequence[PageId]],
        spam_segments: Dict[str, Sequence[PageId]],
        popularity_exponent: float = 1.0,
        own_spam_fraction: float = 0.6,
    ) -> None:
        require(len(global_pages) > 0, "global segment must be non-empty")
        require(SHARED_SPAM_KEY in spam_segments, "spam segments need the shared key")
        require(len(spam_segments[SHARED_SPAM_KEY]) > 0, "shared spam must be non-empty")
        check_fraction(own_spam_fraction, "own_spam_fraction")
        # Segments live as int64 arrays so per-user sampling is pure array
        # indexing; the list-returning accessors below materialise copies.
        self._global = np.asarray(list(global_pages), dtype=np.int64)
        self._regional = {
            c: np.asarray(list(pages), dtype=np.int64)
            for c, pages in regional_pages.items()
        }
        self._spam = {
            key: np.asarray(list(pages), dtype=np.int64)
            for key, pages in spam_segments.items()
        }
        self._empty = np.empty(0, dtype=np.int64)
        self._own_spam_fraction = own_spam_fraction
        self._global_weights = zipf_weights(len(self._global), popularity_exponent)
        self._regional_weights = {
            country: zipf_weights(len(pages), popularity_exponent)
            for country, pages in self._regional.items()
            if len(pages)
        }
        self._spam_weights = {
            key: zipf_weights(len(pages), popularity_exponent)
            for key, pages in self._spam.items()
            if len(pages)
        }

    @property
    def global_pages(self) -> List[PageId]:
        """The globally popular segment."""
        return self._global.tolist()

    @property
    def spam_pages(self) -> List[PageId]:
        """Every spam-job page across all segments."""
        pages: List[PageId] = []
        for segment in self._spam.values():
            pages.extend(segment.tolist())
        return pages

    def spam_segment(self, key: str) -> List[PageId]:
        """One spam segment's pages (empty for unknown keys)."""
        return self._spam.get(key, self._empty).tolist()

    def regional_pages(self, country: str) -> List[PageId]:
        """The regional segment for ``country`` (may be empty)."""
        return self._regional.get(country, self._empty).tolist()

    @property
    def all_page_ids(self) -> List[PageId]:
        """Every page in the universe."""
        pages = self._global.tolist() + self.spam_pages
        for segment in self._regional.values():
            pages.extend(segment.tolist())
        return pages

    def sample_likes(
        self,
        rng: RngStream,
        total: int,
        mix: LikeMix,
        country: str,
        spam_key: str = None,
    ) -> List[PageId]:
        """Draw ``total`` distinct pages for a user in ``country``.

        ``spam_key`` selects the user's own operator segment; spam draws
        split ``own_spam_fraction`` / remainder between it and the shared
        exchange segment.  Segment shortfalls (a tiny regional pool, say)
        spill into the global segment so the requested count is honoured
        whenever the universe is big enough overall.
        """
        return self.sample_likes_array(
            rng, total, mix, country, spam_key=spam_key
        ).tolist()

    def sample_likes_array(
        self,
        rng: RngStream,
        total: int,
        mix: LikeMix,
        country: str,
        spam_key: str = None,
    ) -> np.ndarray:
        """Array twin of :meth:`sample_likes`: same draws, same order.

        The segments are int64 arrays, so each per-segment sample is an
        array slice and the user's page set is one concatenation — no
        per-element Python objects until a caller asks for them.  It is
        also the reference the cohort sampler is pinned against.
        """
        require(total >= 0, "total must be >= 0")
        parts = [
            weighted_sample_positive(rng, items, weights, take)
            for _, items, weights, take in self._plan(total, mix, country, spam_key)
        ]
        if not parts:
            return self._empty.copy()
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def _plan(
        self, total: int, mix: LikeMix, country: str, spam_key: str
    ) -> List[_Sample]:
        """One user's draw plan: ``(segment key, segment, weights, take)``.

        Entirely RNG-free — the plan depends only on the mix counts and
        segment sizes — so the batched sampler can lay out a whole
        cohort's plans, make one uniform draw for all of them, and still
        consume the stream in exactly the per-user order the scalar
        :meth:`sample_likes_array` does.  Shortfall spill (regional/spam
        into global) matches the scalar path because it *is* the scalar
        path, factored out.  The key names the segment (``("regional",
        country)``, ``("spam", key)`` or ``("global",)``), so the batched
        sampler can stack the samples that draw from the same one.
        """
        counts = _mix_counts(mix, total)
        plan: List[_Sample] = []
        regional = self._regional.get(country, self._empty)
        regional_take = min(counts[1], len(regional))
        if regional_take > 0:
            plan.append(
                (
                    ("regional", country),
                    regional,
                    self._regional_weights[country],
                    regional_take,
                )
            )
        spam_take = 0
        spam_count = counts[2]
        if spam_count > 0:
            own = self._spam.get(spam_key, self._empty) if spam_key else self._empty
            own_target = (
                int(round(spam_count * self._own_spam_fraction)) if len(own) else 0
            )
            own_take = min(own_target, len(own))
            if own_take > 0:
                plan.append(
                    (("spam", spam_key), own, self._spam_weights[spam_key], own_take)
                )
                spam_take += own_take
            shared = self._spam[SHARED_SPAM_KEY]
            shared_take = min(spam_count - spam_take, len(shared))
            if shared_take > 0:
                plan.append(
                    (
                        ("spam", SHARED_SPAM_KEY),
                        shared,
                        self._spam_weights[SHARED_SPAM_KEY],
                        shared_take,
                    )
                )
                spam_take += shared_take
        global_take = min(
            counts[0] + (counts[1] - regional_take) + (spam_count - spam_take),
            len(self._global),
        )
        if global_take > 0:
            plan.append((("global",), self._global, self._global_weights, global_take))
        return plan

    def sample_likes_many(
        self,
        rng: RngStream,
        totals: Sequence[int],
        mix: LikeMix,
        countries: Sequence[str],
        spam_key: str = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw liked-page sets for a whole cohort in one call.

        ``totals[i]`` pages are drawn for the user in ``countries[i]``; all
        users share ``mix`` and ``spam_key``.  Returns ``(pages, counts)``,
        both int64: ``pages`` holds every user's pages in user order, and
        within a user in plan order (regional, own spam, shared spam,
        global); ``counts[i]`` is how many of them belong to user ``i``.
        Each user's slice is bit-identical (values and order) to calling
        :meth:`sample_likes_array` for that user, user by user on the same
        stream, and the stream ends in the same state.

        Every sample consumes ``len(segment)`` uniforms, so the cohort's
        uniforms come from chunked ``generator.random`` calls with one
        ``log`` pass each.  A block ends at a user boundary and holds at
        most ``_DRAW_CHUNK`` uniforms (2 MB), unless one user's draws
        alone exceed that; split this way the draws are the per-call
        draws (the generator fills arrays element by element from the
        same stream).  Within a block, the
        samples that take the same count from the same segment are
        stacked as rows: their keys ``log(u)/w`` are gathered into one
        matrix and selected with one ``argpartition(-take, axis=1)``,
        which returns for each row the indices, in the order, that the
        1-D call returns.  A group of one row selects on its slice of the
        block with the 1-D call, and a sample that takes the whole
        segment copies it, leaving its uniforms unused.  A group's keys
        lie in one block, so its gathered keys stay under 2 MB too.
        """
        require(len(totals) == len(countries), "totals and countries must align")
        plans: Dict[Tuple[int, str], _UserPlan] = {}
        cohort: List[_UserPlan] = []
        for total, country in zip(totals, countries):
            user_plan = plans.get((total, country))
            if user_plan is None:
                require(total >= 0, "total must be >= 0")
                samples = self._plan(total, mix, country, spam_key)
                user_plan = plans[(total, country)] = (
                    samples,
                    sum(weights.shape[0] for _, _, weights, _ in samples),
                    sum(take for _, _, _, take in samples),
                )
            cohort.append(user_plan)
        counts = np.fromiter(
            (count for _, _, count in cohort), dtype=np.int64, count=len(cohort)
        )
        pages = np.empty(int(counts.sum()), dtype=np.int64)
        generator = rng.generator
        out = 0
        start = 0
        while start < len(cohort):
            stop = start + 1
            draws = cohort[start][1]
            while stop < len(cohort) and draws + cohort[stop][1] <= _DRAW_CHUNK:
                draws += cohort[stop][1]
                stop += 1
            if draws:
                keys = generator.random(draws)
                np.log(keys, out=keys)
                out = _select_block(keys, cohort[start:stop], pages, out)
            start = stop
        return pages, counts


def _windows(column: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-long window of ``column``, as one strided view.

    Row ``i`` is ``column[i : i + width]``, so indexing the rows with a
    list of starts gathers (or scatters to) those slices in one call.
    The windows overlap, so a scatter must target disjoint slices.
    """
    step = column.strides[0]
    return np.ndarray(
        shape=(column.shape[0] - width + 1, width),
        dtype=column.dtype,
        buffer=column,
        strides=(step, step),
    )


def _select_block(
    keys: np.ndarray, block: Sequence[_UserPlan], pages: np.ndarray, out: int
) -> int:
    """Select one block's samples into ``pages`` from ``out`` on.

    ``keys`` holds ``log(u)`` for every uniform of the block's users, in
    plan order.  Returns the position after the block's last page.
    """
    groups: Dict[Tuple[tuple, int], Tuple[np.ndarray, np.ndarray, list, list]] = {}
    at = 0
    for samples, _, _ in block:
        for segment, items, weights, take in samples:
            n = weights.shape[0]
            if take == n:
                # whole-segment sample: uniforms consumed, keys unused
                pages[out : out + n] = items
            else:
                group = groups.get((segment, take))
                if group is None:
                    group = groups[(segment, take)] = (items, weights, [], [])
                group[2].append(at)
                group[3].append(out)
            at += n
            out += take
    for (_, take), (items, weights, key_starts, page_starts) in groups.items():
        n = weights.shape[0]
        if len(key_starts) == 1:
            at, start = key_starts[0], page_starts[0]
            chosen = (keys[at : at + n] / weights).argpartition(-take)[-take:]
            pages[start : start + take] = items[chosen]
            continue
        rows = _windows(keys, n)[key_starts]
        rows /= weights
        chosen = rows.argpartition(-take, axis=1)[:, -take:]
        _windows(pages, take)[page_starts] = items[chosen]
    return out


def build_universe(
    page_ids: Sequence[PageId],
    spam_page_ids: Sequence[PageId],
    countries: Sequence[str],
    country_weights: Sequence[float],
    rng: RngStream,
    global_fraction: float = 0.30,
    shared_spam_fraction: float = 0.35,
    spam_keys: Sequence[str] = DEFAULT_SPAM_KEYS,
    popularity_exponent: float = 1.0,
) -> PageUniverse:
    """Partition pages into global + regional + spam segments.

    Regional segment sizes are proportional to ``country_weights`` (bigger
    markets have more local pages); spam pages split into the shared
    exchange segment and equal per-operator segments.
    """
    check_fraction(global_fraction, "global_fraction")
    check_fraction(shared_spam_fraction, "shared_spam_fraction")
    require(len(countries) == len(country_weights), "countries/weights must align")
    require(len(spam_page_ids) > 0, "need at least one spam page")
    pages = rng.shuffled(list(page_ids))
    n_global = max(1, int(round(len(pages) * global_fraction)))
    global_pages = pages[:n_global]
    rest = pages[n_global:]
    regional: Dict[str, List[PageId]] = {}
    if rest and countries:
        counts = interpolate_counts(len(rest), np.asarray(country_weights, dtype=float))
        start = 0
        for country, count in zip(countries, counts):
            regional[country] = rest[start : start + count]
            start += count

    spam_pages = rng.shuffled(list(spam_page_ids))
    n_shared = max(1, int(round(len(spam_pages) * shared_spam_fraction)))
    spam_segments: Dict[str, List[PageId]] = {SHARED_SPAM_KEY: spam_pages[:n_shared]}
    remaining = spam_pages[n_shared:]
    if remaining and spam_keys:
        counts = interpolate_counts(len(remaining), [1.0] * len(spam_keys))
        start = 0
        for key, count in zip(spam_keys, counts):
            spam_segments[key] = remaining[start : start + count]
            start += count
    return PageUniverse(
        global_pages=global_pages,
        regional_pages=regional,
        spam_segments=spam_segments,
        popularity_exponent=popularity_exponent,
    )
