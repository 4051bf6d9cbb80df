"""Cross-campaign similarity analysis (paper Section 4.4, Figure 5).

Two 13x13 Jaccard matrices:

* **Page-like similarity** — between the unions of pages liked by each
  campaign's likers.  High blocks reveal populations drawing on the same
  page universe (FB-IND/FB-EGY/FB-ALL; each farm with itself).
* **Liker similarity** — between the liker sets themselves.  High
  off-diagonals reveal account reuse (SF-ALL/SF-USA) and shared operators
  (AL-USA/MS-USA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.honeypot.storage import HoneypotDataset
from repro.osn.columns import sorted_unique


@dataclass(frozen=True)
class SimilarityMatrices:
    """The two Figure 5 matrices, values scaled x100 as in the paper."""

    campaign_ids: List[str]
    page_similarity: List[List[float]]
    user_similarity: List[List[float]]

    def page_value(self, a: str, b: str) -> float:
        """Page-set similarity (x100) between campaigns ``a`` and ``b``."""
        i, j = self.campaign_ids.index(a), self.campaign_ids.index(b)
        return self.page_similarity[i][j]

    def user_value(self, a: str, b: str) -> float:
        """Liker-set similarity (x100) between campaigns ``a`` and ``b``."""
        i, j = self.campaign_ids.index(a), self.campaign_ids.index(b)
        return self.user_similarity[i][j]


def campaign_page_sets(dataset: HoneypotDataset) -> Dict[str, np.ndarray]:
    """Union of pages liked by each campaign's likers, as a sorted int32 array."""
    sets: Dict[str, np.ndarray] = {}
    for campaign_id in dataset.campaign_ids():
        pages = [liker.liked_page_ids for liker in dataset.likers_of(campaign_id)]
        sets[campaign_id] = (
            sorted_unique(np.concatenate(pages)) if pages else np.empty(0, np.int32)
        )
    return sets


def campaign_liker_sets(dataset: HoneypotDataset) -> Dict[str, np.ndarray]:
    """The distinct liker ids of each campaign, as a sorted array."""
    return {
        campaign_id: sorted_unique(
            np.asarray(dataset.campaign(campaign_id).liker_ids, dtype=np.int64)
        )
        for campaign_id in dataset.campaign_ids()
    }


def _sorted_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`~repro.analysis.stats.jaccard` of two sorted, duplicate-free arrays.

    Both counts are integers, so the ratio is the float the set version
    gives.
    """
    if not a.size and not b.size:
        return 0.0
    shared = np.intersect1d(a, b, assume_unique=True).size
    return shared / (a.size + b.size - shared)


def jaccard_matrices(dataset: HoneypotDataset) -> SimilarityMatrices:
    """Figure 5: both similarity matrices, x100."""
    campaign_ids = dataset.campaign_ids()
    page_sets = campaign_page_sets(dataset)
    liker_sets = campaign_liker_sets(dataset)
    page_matrix = [
        [100.0 * _sorted_jaccard(page_sets[a], page_sets[b]) for b in campaign_ids]
        for a in campaign_ids
    ]
    user_matrix = [
        [100.0 * _sorted_jaccard(liker_sets[a], liker_sets[b]) for b in campaign_ids]
        for a in campaign_ids
    ]
    return SimilarityMatrices(
        campaign_ids=campaign_ids,
        page_similarity=page_matrix,
        user_similarity=user_matrix,
    )
