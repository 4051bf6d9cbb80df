"""Farm operators: the entities that own and reuse account pools.

A storefront (brand) is what the customer sees; the *operator* is who runs
the accounts.  The paper inferred from liker overlap and cross-brand
friendships that AuthenticLikes and MammothSocials "might be managed by the
same operator" — here that is literal: both brands can point at one
:class:`FarmOperator`, so a MammothSocials order is partly served by
accounts that already liked AuthenticLikes honeypots, reproducing the ALMS
group of the paper's Table 3 and the AL-USA/MS-USA block of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List

import numpy as np

from repro.farms.accounts import FakeAccountFactory, FarmAccountConfig
from repro.farms.topology import FarmTopology
from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, require


@dataclass(slots=True)
class PoolStats:
    """Bookkeeping for one regional pool."""

    created: int = 0
    reused: int = 0


class FarmOperator:
    """Owns regional account pools shared by one or more storefronts.

    Parameters
    ----------
    name:
        Operator identifier (used in pool bookkeeping only; accounts carry
        their *storefront's* cohort so analyses see brands, as the paper did).
    reuse_fraction:
        When serving an order, up to this fraction of the accounts are drawn
        from the existing regional pool (accounts that served earlier
        orders); the rest are freshly created.
    regional_pools:
        When True (default) each region has its own pool, so USA orders only
        reuse accounts created for USA orders.  Farms that ignore targeting
        (SocialFormula) keep a single pool, which is why the paper saw the
        same Turkish profiles in both its SF campaigns.
    """

    _SHARED_POOL_KEY = "ALL"

    def __init__(
        self,
        name: str,
        network: SocialNetwork,
        factory: FakeAccountFactory,
        rng: RngStream,
        reuse_fraction: float = 0.1,
        regional_pools: bool = True,
    ) -> None:
        require(bool(name), "operator name must be non-empty")
        check_fraction(reuse_fraction, "reuse_fraction")
        self.name = name
        self._network = network
        self._factory = factory
        self._rng = rng
        self.reuse_fraction = reuse_fraction
        self.regional_pools = regional_pools
        self._pools: Dict[str, List[UserId]] = {}
        self.stats: Dict[str, PoolStats] = {}
        self._order_counter = 0

    def _pool_key(self, region: str) -> str:
        return region if self.regional_pools else self._SHARED_POOL_KEY

    def pool(self, region: str) -> List[UserId]:
        """Accounts currently pooled for ``region``."""
        return list(self._pools.get(self._pool_key(region), ()))

    def accounts_for_order(
        self,
        farm_name: str,
        config: FarmAccountConfig,
        region: str,
        count: int,
        topology: FarmTopology = None,
        created_at: int = 0,
    ) -> List[UserId]:
        """Assemble ``count`` accounts for an order.

        Reused accounts keep their original profile (they were built by
        whichever brand first used them — the cross-brand tell).  Fresh
        accounts follow ``config`` and are wired into ``topology`` as a new
        pool segment, then added to the regional pool for future reuse.
        """
        require(count >= 0, "count must be >= 0")
        self._order_counter += 1
        rng = self._rng.child(f"order/{self._order_counter}")
        key = self._pool_key(region)
        pool = self._pools.setdefault(key, [])
        stats = self.stats.setdefault(key, PoolStats())

        # One read of the alive column over the pool's rows, pool order kept.
        profiles = self._network.profiles
        alive = profiles.alive_mask()[np.asarray(pool, dtype=np.int64) - profiles.id_base]
        reusable = list(compress(pool, alive.tolist()))
        reuse_target = min(int(round(count * self.reuse_fraction)), len(reusable))
        reused = (
            rng.sample_without_replacement(reusable, reuse_target)
            if reuse_target > 0
            else []
        )
        fresh = self._factory.create_accounts(
            farm_name=farm_name,
            config=config,
            region=region,
            count=count - len(reused),
            rng=rng.child("create"),
            created_at=created_at,
        )
        if topology is not None and fresh:
            topology.wire_pool(
                self._network, fresh, rng.child("topology"), farm_name, config.age
            )
        pool.extend(fresh)
        stats.created += len(fresh)
        stats.reused += len(reused)
        return reused + fresh
