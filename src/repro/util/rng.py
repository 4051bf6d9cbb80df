"""Deterministic random-number plumbing.

Every stochastic component in the simulator draws from an :class:`RngStream`
that is derived from a single experiment seed plus a string label.  This
keeps the whole study reproducible bit-for-bit while letting unrelated
subsystems (ad delivery, each like farm, the termination sweep, ...) consume
randomness independently: adding draws to one subsystem never perturbs
another.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from repro.util.validation import ValidationError, require

_SEED_BYTES = 8


def _plain(value):
    """Recursively convert numpy scalars to plain Python for JSON round-trips."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a child seed from ``root_seed`` and a string ``label``.

    The derivation is a truncated SHA-256 of the root seed and label, so it
    is stable across processes, platforms, and Python hash randomisation.
    """
    require(isinstance(label, str) and label != "", "label must be a non-empty string")
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")


class RngStream:
    """A labelled, forkable wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Root seed for this stream.
    label:
        Human-readable label recorded for debugging; also namespaces child
        streams.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        require(isinstance(seed, int), "seed must be an int")
        self.seed = seed
        self.label = label
        self._generator = np.random.default_rng(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, label={self.label!r})"

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for vectorised draws)."""
        return self._generator

    def child(self, label: str) -> "RngStream":
        """Fork an independent child stream named ``label``.

        Children are derived from the *seed*, not the generator state, so the
        same ``(seed, label)`` pair always yields the same child regardless
        of how many draws the parent has made.
        """
        return RngStream(derive_seed(self.seed, label), f"{self.label}/{label}")

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> dict:
        """The stream's full state as JSON-serialisable plain types.

        Captures the seed/label identity and the underlying bit generator's
        state, so a stream restored via :meth:`load_state_dict` continues
        the exact draw sequence of the captured stream.
        """
        return {
            "seed": self.seed,
            "label": self.label,
            "generator": _plain(self._generator.bit_generator.state),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`.

        The stored identity must match this stream's: restoring state into
        a differently-seeded or differently-labelled stream is always a
        wiring bug, so it fails loudly instead of silently desynchronising.
        """
        require(
            state.get("seed") == self.seed and state.get("label") == self.label,
            f"rng state is for ({state.get('seed')}, {state.get('label')!r}), "
            f"not ({self.seed}, {self.label!r})",
        )
        self._generator.bit_generator.state = state["generator"]

    # -- convenience draw helpers -------------------------------------------------

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        return float(self._generator.random())

    def uniform(self, low: float, high: float) -> float:
        """A uniform float in [low, high)."""
        return float(self._generator.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """A uniform integer in [low, high) (numpy ``integers`` semantics)."""
        if not high > low:
            raise ValidationError(f"randint requires high > low, got [{low}, {high})")
        return int(self._generator.integers(low, high))

    def normal(self, mean: float, std: float) -> float:
        """A normal draw."""
        return float(self._generator.normal(mean, std))

    def poisson(self, lam: float) -> int:
        """A Poisson draw."""
        return int(self._generator.poisson(lam))

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"bernoulli p must be in [0,1], got {p}")
        return bool(self._generator.random() < p)

    def bernoulli_many(self, p: float, n: int) -> np.ndarray:
        """``n`` draws of :meth:`bernoulli` as one bool array.

        Same values and same stream state after as ``n`` scalar calls:
        both read one uniform per draw, in order.
        """
        require(0.0 <= p <= 1.0, f"bernoulli p must be in [0,1], got {p}")
        return self._generator.random(n) < p

    def choice(self, items: Sequence, size: Optional[int] = None, replace: bool = True):
        """Choose one item (``size=None``) or a list of items from ``items``."""
        require(len(items) > 0, "choice requires a non-empty sequence")
        if size is None:
            # Generator.choice(n) without p consumes exactly one
            # integers(0, n) draw; calling integers directly is
            # bit-identical and ~5x cheaper (skips choice's array setup).
            return items[int(self._generator.integers(0, len(items)))]
        indices = self._generator.choice(len(items), size=size, replace=replace)
        return [items[int(i)] for i in indices]

    def shuffled(self, items: Sequence) -> list:
        """Return a new shuffled list of ``items`` (input left untouched)."""
        order = self._generator.permutation(len(items))
        return [items[int(i)] for i in order]

    def sample_without_replacement(self, items: Sequence, k: int) -> list:
        """Choose ``k`` distinct items from ``items``."""
        require(
            0 <= k <= len(items),
            f"cannot sample {k} items from a sequence of {len(items)}",
        )
        return self.choice(items, size=k, replace=False)
