"""The page-insights reports tool.

The paper collected liker demographics not by scraping profiles but through
"Facebook's reports tool for page administrators, which provides a variety
of aggregated statistics about attributes and profiles of page likers" —
including attributes users keep private, since the platform sees everything
(footnote 1 of the paper).  This module reproduces that tool: given a page,
it aggregates the likers' ground-truth gender, age bracket, and country into
distributions, plus the same statistics for the whole network.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.osn.ids import PageId
from repro.osn.network import SocialNetwork
from repro.osn.profile import AGE_BRACKETS, Gender


@dataclass(frozen=True)
class PageInsightsReport:
    """Aggregated liker statistics for one page (or the global population).

    All values are fractions that sum to 1 within each attribute, except
    ``total_likes`` which is the raw count.
    """

    page_id: PageId
    total_likes: int
    gender: Dict[str, float]
    age: Dict[str, float]
    country: Dict[str, float]

    @property
    def female_share(self) -> float:
        """Fraction of likers reported as female."""
        return self.gender.get(Gender.FEMALE.value, 0.0)

    @property
    def male_share(self) -> float:
        """Fraction of likers reported as male."""
        return self.gender.get(Gender.MALE.value, 0.0)


class ReportsTool:
    """Produces :class:`PageInsightsReport` aggregates from ground truth."""

    def __init__(self, network: SocialNetwork) -> None:
        self._network = network

    def page_report(self, page_id: PageId) -> PageInsightsReport:
        """Aggregate demographics of everyone who liked ``page_id``.

        Terminated likers are still counted: the platform aggregated over
        likes as they stood, and the paper's demographics were collected
        while campaigns ran.
        """
        liker_ids = np.asarray(self._network.page_liker_ids(page_id), dtype=np.int64)
        return self._report(page_id, liker_ids - self._network.profiles.id_base)

    def global_report(self) -> PageInsightsReport:
        """The same aggregates over the searchable (directory) population.

        Used as the comparison row at the bottom of the paper's Table 2.
        Restricting to searchable accounts mirrors the real platform, where
        published population statistics reflect the ordinary user base —
        fraud pools are a negligible share of Facebook but not of our
        deliberately fraud-heavy simulated world.
        """
        profiles = self._network.profiles
        rows = np.flatnonzero(profiles.searchable_mask() & profiles.alive_mask())
        return self._report(PageId(-1), rows)

    def _report(self, page_id: PageId, rows: np.ndarray) -> PageInsightsReport:
        """Aggregate the profile ``rows`` (a repeated row counts again)."""
        profiles = self._network.profiles
        genders = (Gender.FEMALE.value, Gender.MALE.value)
        return PageInsightsReport(
            page_id=page_id,
            total_likes=int(rows.shape[0]),
            gender=_fractions(_counts(profiles.gender_codes()[rows], genders.__getitem__)),
            age=_bracket_fractions(
                _counts(profiles.age_bracket_indices()[rows], AGE_BRACKETS.__getitem__)
            ),
            country=_fractions(_counts(profiles.country_codes()[rows], profiles.strings.value)),
        )


def _counts(codes: np.ndarray, label) -> Counter:
    """How often each code occurs, keyed by ``label(code)``."""
    values, counts = np.unique(codes, return_counts=True)
    return Counter({label(value): count for value, count in zip(values.tolist(), counts.tolist())})


def _fractions(counts: Counter) -> Dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {key: count / total for key, count in sorted(counts.items())}


def _bracket_fractions(counts: Counter) -> Dict[str, float]:
    total = sum(counts.values())
    return {
        bracket: (counts.get(bracket, 0) / total if total else 0.0)
        for bracket in AGE_BRACKETS
    }
