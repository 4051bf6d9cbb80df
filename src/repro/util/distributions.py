"""Sampling distributions used to generate the simulated world.

The population generators (organic users, click workers, farm accounts) are
parameterised with these distribution objects rather than ad-hoc numpy calls
so that calibration lives in configuration, not in code paths.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.util.rng import RngStream
from repro.util.validation import check_positive, require


class Categorical:
    """A categorical distribution over arbitrary hashable labels.

    Weights need not be normalised; they are normalised on construction.

    >>> from repro.util.rng import RngStream
    >>> dist = Categorical({"a": 3, "b": 1})
    >>> dist.probability("a")
    0.75
    >>> label = dist.sample(RngStream(1))
    >>> label in ("a", "b")
    True
    """

    def __init__(self, weights: Dict) -> None:
        require(len(weights) > 0, "Categorical needs at least one label")
        total = float(sum(weights.values()))
        check_positive(total, "sum of categorical weights")
        for label, weight in weights.items():
            require(weight >= 0, f"weight for {label!r} must be >= 0, got {weight}")
        self._labels: List = list(weights.keys())
        self._probs = np.array(
            [weights[label] / total for label in self._labels], dtype=float
        )
        # Generator.choice(n, p=probs) draws one uniform and inverts the
        # normalised cdf with a right-side searchsorted; caching the cdf
        # and doing that inversion directly is bit-identical per draw and
        # skips choice's per-call probability validation (~10x cheaper on
        # the scalar hot paths: farm regions, hub countries).
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]

    @property
    def labels(self) -> List:
        """Labels in insertion order."""
        return list(self._labels)

    def probability(self, label) -> float:
        """Probability mass assigned to ``label`` (0.0 if unknown)."""
        try:
            index = self._labels.index(label)
        except ValueError:
            return 0.0
        return float(self._probs[index])

    def as_dict(self) -> Dict:
        """The normalised probability mass function as a dict."""
        return {label: float(p) for label, p in zip(self._labels, self._probs)}

    def sample(self, rng: RngStream):
        """Draw a single label."""
        index = int(self._cdf.searchsorted(rng.generator.random(), side="right"))
        return self._labels[min(index, len(self._labels) - 1)]

    def sample_many(self, rng: RngStream, n: int) -> List:
        """Draw ``n`` labels i.i.d."""
        require(n >= 0, "n must be >= 0")
        indices = self._cdf.searchsorted(rng.generator.random(n), side="right")
        last = len(self._labels) - 1
        return [self._labels[min(int(i), last)] for i in indices]

    def rescaled(self, overrides: Dict) -> "Categorical":
        """A new distribution with some weights replaced, then renormalised.

        Useful for deriving cohort-specific distributions from a global one
        (e.g. boosting a target country for an ad campaign).
        """
        weights = self.as_dict()
        weights.update(overrides)
        return Categorical(weights)

    def __repr__(self) -> str:
        # Value-based (no object address): reprs feed the run-manifest
        # config fingerprint, which must be stable across processes.
        pmf = ", ".join(f"{label!r}: {p:.6g}" for label, p in self.as_dict().items())
        return f"Categorical({{{pmf}}})"


class LogNormalCount:
    """Integer counts drawn from a clipped log-normal distribution.

    Parameterised by its *median* rather than mu, because the paper reports
    medians (friend counts, page-like counts).  ``sigma`` controls spread.

    >>> from repro.util.rng import RngStream
    >>> counts = LogNormalCount(median=34, sigma=1.0, minimum=1)
    >>> all(c >= 1 for c in counts.sample_many(RngStream(7), 100))
    True
    """

    def __init__(
        self,
        median: float,
        sigma: float,
        minimum: int = 0,
        maximum: int = 10_000,
    ) -> None:
        check_positive(median, "median")
        check_positive(sigma, "sigma")
        require(maximum >= minimum, "maximum must be >= minimum")
        self.median = median
        self.sigma = sigma
        self.minimum = minimum
        self.maximum = maximum
        self._mu = math.log(median)

    def sample(self, rng: RngStream) -> int:
        """Draw one count."""
        raw = rng.generator.lognormal(self._mu, self.sigma)
        return int(min(max(round(raw), self.minimum), self.maximum))

    def sample_many(self, rng: RngStream, n: int) -> List[int]:
        """Draw ``n`` counts i.i.d."""
        require(n >= 0, "n must be >= 0")
        raw = rng.generator.lognormal(self._mu, self.sigma, size=n)
        clipped = np.clip(np.round(raw), self.minimum, self.maximum)
        return [int(c) for c in clipped]

    def __repr__(self) -> str:
        # Value-based for the same reason as Categorical.__repr__.
        return (
            f"LogNormalCount(median={self.median!r}, sigma={self.sigma!r}, "
            f"minimum={self.minimum!r}, maximum={self.maximum!r})"
        )


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf popularity weights for ranks 1..n.

    Used to model page popularity: a handful of pages collect most likes.
    """
    require(n > 0, "n must be > 0")
    check_positive(exponent, "exponent")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def weighted_sample_positive(
    rng: RngStream, items: np.ndarray, weights: np.ndarray, k: int
) -> np.ndarray:
    """Sample ``k`` distinct items with probability proportional to weight.

    Implemented via the exponential-sort trick (Efraimidis–Spirakis), which
    is exact and vectorised.  The caller guarantees ``items`` is an
    ndarray, ``weights`` a strictly positive float array of the same
    length, and ``0 <= k <= len(items)`` (the page universe's cached Zipf
    weights satisfy all three); nothing is validated, because the check
    would dominate at tens of thousands of small draws per world build.
    Every call consumes ``len(weights)`` uniforms, the whole-population
    short cut included (which returns ``items`` in population order), so
    the draws after it stay aligned.  The result is a copy, never a view.
    """
    if k == 0:
        return items[:0].copy()
    generator = rng.generator
    if k == len(items):
        generator.random(weights.shape[0])
        return items.copy()
    keys = np.log(generator.random(weights.shape[0]))
    keys /= weights
    chosen = keys.argpartition(-k)[-k:]
    return items[chosen]


def interpolate_counts(total: int, fractions: Sequence[float]) -> List[int]:
    """Split ``total`` into integer parts proportional to ``fractions``.

    Uses largest-remainder rounding so the parts always sum to ``total``.
    """
    require(total >= 0, "total must be >= 0")
    require(len(fractions) > 0, "fractions must be non-empty")
    fractions = np.asarray(fractions, dtype=float)
    require(bool(np.all(fractions >= 0)), "fractions must be non-negative")
    denom = fractions.sum()
    check_positive(float(denom), "sum of fractions")
    exact = fractions / denom * total
    floors = np.floor(exact).astype(int)
    remainder = total - int(floors.sum())
    order = np.argsort(-(exact - floors))
    result = floors.copy()
    for i in range(remainder):
        result[order[i]] += 1
    return [int(x) for x in result]


def split_into_groups(
    rng: RngStream, items: Sequence, sizes: Tuple[int, ...] = (2, 3)
) -> List[List]:
    """Randomly partition ``items`` into groups of the given sizes.

    Group sizes are drawn uniformly from ``sizes``; a final undersized
    remainder group is kept as-is.  Used by the pair/triplet farm topology.
    """
    require(len(sizes) > 0, "sizes must be non-empty")
    for size in sizes:
        require(size >= 1, "group sizes must be >= 1")
    pool = rng.shuffled(items)
    groups: List[List] = []
    index = 0
    while index < len(pool):
        size = int(rng.choice(list(sizes)))
        groups.append(pool[index : index + size])
        index += size
    return groups
