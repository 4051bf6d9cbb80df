"""The public directory of searchable profiles.

The paper's baseline ("a random set of 2000 Facebook users") was drawn by
sampling the public directory that lists all searchable profile ids [9].
This module reproduces that sampling frame: only accounts that are
searchable and not terminated are eligible.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.util.rng import RngStream
from repro.util.validation import require


class PublicDirectory:
    """Random sampling over searchable, live accounts."""

    def __init__(self, network: SocialNetwork) -> None:
        self._network = network

    def _listed(self) -> np.ndarray:
        profiles = self._network.profiles
        return profiles.searchable_mask() & profiles.alive_mask()

    def __len__(self) -> int:
        """How many accounts the directory lists."""
        return int(np.count_nonzero(self._listed()))

    def searchable_user_ids(self) -> List[UserId]:
        """All ids currently listed in the directory, ascending."""
        return (np.flatnonzero(self._listed()) + self._network.profiles.id_base).tolist()

    def sample_users(self, rng: RngStream, n: int) -> List[UserId]:
        """Sample ``n`` distinct directory entries uniformly at random."""
        listed = self.searchable_user_ids()
        require(
            n <= len(listed),
            f"directory has only {len(listed)} searchable users, asked for {n}",
        )
        return rng.sample_without_replacement(listed, n)
