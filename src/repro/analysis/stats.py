"""Statistical primitives used by the analyses.

Kept dependency-light and dataset-agnostic: distributions in, numbers out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.util.validation import require


def kl_divergence_bits(
    p: Dict[str, float], q: Dict[str, float], smoothing: float = 1e-6
) -> float:
    """Kullback-Leibler divergence D(p || q) in bits.

    The paper's Table 2 reports the divergence between each campaign's age
    distribution and the global Facebook population's; the magnitudes match
    a base-2 logarithm.  Distributions are smoothed and renormalised so
    zero-mass brackets do not produce infinities.
    """
    require(smoothing > 0, "smoothing must be > 0")
    keys = sorted(set(p) | set(q))
    require(len(keys) > 0, "distributions must be non-empty")
    p_vec = np.array([max(p.get(k, 0.0), 0.0) + smoothing for k in keys])
    q_vec = np.array([max(q.get(k, 0.0), 0.0) + smoothing for k in keys])
    p_vec = p_vec / p_vec.sum()
    q_vec = q_vec / q_vec.sum()
    return float(np.sum(p_vec * np.log2(p_vec / q_vec)))


def jaccard(a: Set, b: Set) -> float:
    """Jaccard similarity |a & b| / |a | b| (0 when both are empty)."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def empirical_cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Sorted values and cumulative fractions: the (x, y) of a CDF plot.

    >>> empirical_cdf([3, 1, 2])
    ([1, 2, 3], [0.3333333333333333, 0.6666666666666666, 1.0])
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return [], []
    return list(ordered), [(i + 1) / n for i in range(n)]


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of ``values`` that are <= ``threshold``."""
    if not values:
        return 0.0
    return sum(1 for v in values if v <= threshold) / len(values)


@dataclass(frozen=True)
class SummaryStats:
    """Mean, standard deviation, and median of a sample."""

    count: int
    mean: float
    std: float
    median: float


def summary_stats(values: Iterable[float]) -> SummaryStats:
    """Summary statistics; all-zero for an empty sample."""
    data = list(values)
    if not data:
        return SummaryStats(count=0, mean=0.0, std=0.0, median=0.0)
    array = np.asarray(data, dtype=float)
    return SummaryStats(
        count=len(data),
        mean=float(array.mean()),
        std=float(array.std()),
        median=_median(array),
    )


def _median(array: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit.

    The same partition (the middle element or elements, and the last
    slot, where a NaN sorts) and the same ``mean`` of the middle, with a
    NaN in the last slot as the result.  ``np.median`` itself reaches
    that NaN check through ``numpy.ma``, whose import a ``run`` would
    otherwise pay for this one call.
    """
    half = array.shape[0] // 2
    if array.shape[0] % 2:
        kth, middle = [half, -1], slice(half, half + 1)
    else:
        kth, middle = [half - 1, half, -1], slice(half - 1, half + 1)
    part = np.partition(array, kth)
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[middle].mean(axis=0))


def max_count_in_window(times: Sequence[int], window: int) -> int:
    """The largest number of events inside any sliding window of ``window``.

    Windows are **half-open** ``[t, t + window)``: an event exactly
    ``window`` after another is in the *next* window, so a window of one
    day counts at most one event of a strictly daily series.  (The old
    inclusive behaviour over-counted every boundary event, inflating the
    burstiness of slow trickle deliveries.)

    Used for burstiness: the paper observed 700+ likes within a few hours.
    """
    require(window > 0, "window must be > 0")
    ordered = sorted(times)
    best = 0
    left = 0
    for right in range(len(ordered)):
        while ordered[right] - ordered[left] >= window:
            left += 1
        best = max(best, right - left + 1)
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``."""
    require(0 <= q <= 100, "q must be in [0, 100]")
    require(len(values) > 0, "values must be non-empty")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = skewed).

    Used in the ablation benches to quantify how concentrated like
    deliveries are in time.
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    require(len(data) > 0, "values must be non-empty")
    require(bool(np.all(data >= 0)), "values must be non-negative")
    total = data.sum()
    if total == 0:
        return 0.0
    n = len(data)
    index = np.arange(1, n + 1)
    return float((2 * np.sum(index * data) - (n + 1) * total) / (n * total))


def math_isclose(a: float, b: float, rel_tol: float = 1e-9) -> bool:
    """Tolerant float comparison (re-exported for test helpers)."""
    return math.isclose(a, b, rel_tol=rel_tol)
