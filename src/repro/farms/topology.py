"""Social-topology builders for farm account pools.

The paper's Figure 3 and Table 3 show two very different liker graphs:

* SocialFormula-style: mostly isolated accounts with occasional **pairs and
  triplets** — "mitigating the risk that identification of a user as fake
  would bring down the whole connected network".
* BoostLikes-style: one **dense, well-connected community** with high
  degrees, resembling (or being) real users.

Both farm types additionally show many *2-hop* (mutual-friend) relations
between likers.  We model mutual friends explicitly as **hub accounts**:
non-liking profiles (pool managers, shared contacts) befriended by many
accounts in the pool.  Hubs never like honeypots, so they are invisible to
the campaign analysis except as the mutual friends they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.osn.population import create_hubs
from repro.osn.profile import COHORT_FARM_PREFIX
from repro.util.distributions import Categorical, split_into_groups
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive, require


@dataclass(slots=True)
class PairTripletTopology:
    """Isolated accounts plus occasional pairs/triplets (burst farms).

    Attributes
    ----------
    grouped_fraction:
        Fraction of accounts placed into pair/triplet cliques; the rest stay
        isolated (no liker-liker edges at all).
    """

    grouped_fraction: float = 0.08

    def __post_init__(self) -> None:
        check_fraction(self.grouped_fraction, "grouped_fraction")

    def wire(self, network: SocialNetwork, accounts: Sequence[UserId], rng: RngStream) -> int:
        """Add edges; returns the number of edges created."""
        grouped = rng.bernoulli_many(self.grouped_fraction, len(accounts)).tolist()
        chosen = [a for a, hit in zip(accounts, grouped) if hit]
        pairs = [
            (group[i], group[j])
            for group in split_into_groups(rng, chosen, sizes=(2, 3))
            for i in range(len(group))
            for j in range(i + 1, len(group))
        ]
        network.add_friendships_arrays([a for a, _ in pairs], [b for _, b in pairs])
        return len(pairs)


@dataclass(slots=True)
class DenseCommunityTopology:
    """A Watts-Strogatz-like ring community (stealth farms).

    Every account is connected to its ``ring_k`` nearest ring neighbours,
    with each edge rewired to a random account with probability
    ``rewire_probability``.  Produces one connected, clustered component —
    the BoostLikes structure in the paper's Figure 3a.
    """

    ring_k: int = 4
    rewire_probability: float = 0.2

    def __post_init__(self) -> None:
        check_positive(self.ring_k, "ring_k")
        require(self.ring_k % 2 == 0, "ring_k must be even")
        check_fraction(self.rewire_probability, "rewire_probability")

    def wire(self, network: SocialNetwork, accounts: Sequence[UserId], rng: RngStream) -> int:
        """Add edges; returns the number of distinct edges wired.

        ``accounts`` are a freshly created pool segment, so a local edge
        set, not a graph read, tells a rewired edge that repeats one.
        """
        n = len(accounts)
        if n < 3:
            network.add_friendships_arrays(accounts[:-1], accounts[1:])
            return max(0, n - 1)
        order = rng.shuffled(list(accounts))
        wired: Dict[Tuple[UserId, UserId], None] = {}
        half_k = min(self.ring_k // 2, (n - 1) // 2)
        for i in range(n):
            for offset in range(1, half_k + 1):
                a, b = order[i], order[(i + offset) % n]
                if rng.bernoulli(self.rewire_probability):
                    b = order[rng.randint(0, n)]
                    if b == a:
                        continue
                wired.setdefault((a, b) if a < b else (b, a))
        network.add_friendships_arrays([a for a, _ in wired], [b for _, b in wired])
        return len(wired)


@dataclass(slots=True)
class HubTopology:
    """Shared mutual-friend hubs creating 2-hop links between likers.

    Attributes
    ----------
    hub_size:
        How many pool accounts each hub befriends.
    memberships_per_account:
        How many hubs each covered account joins (>=1 densifies 2-hop links
        without adding any direct liker-liker edges).
    coverage:
        Fraction of the pool attached to hubs at all.
    """

    hub_size: int = 10
    memberships_per_account: int = 1
    coverage: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.hub_size, "hub_size")
        check_positive(self.memberships_per_account, "memberships_per_account")
        check_fraction(self.coverage, "coverage")

    def wire(
        self,
        network: SocialNetwork,
        accounts: Sequence[UserId],
        rng: RngStream,
        farm_name: str,
        age: Categorical,
    ) -> List[UserId]:
        """Create hub users and wire memberships; returns hub ids."""
        hit = rng.bernoulli_many(self.coverage, len(accounts)).tolist()
        covered = [a for a, chosen in zip(accounts, hit) if chosen]
        if len(covered) < 2:
            return []
        slots = len(covered) * self.memberships_per_account
        hub_count = max(1, round(slots / self.hub_size))
        hubs = create_hubs(
            network, rng, hub_count, 0.5, age,
            country="OTHER", cohort=f"{COHORT_FARM_PREFIX}{farm_name}",
        )
        per_account = min(self.memberships_per_account, len(hubs))
        members: List[UserId] = []
        joined: List[UserId] = []
        for account in covered:
            members.extend([account] * per_account)
            joined.extend(rng.sample_without_replacement(hubs, per_account))
        network.add_friendships_arrays(members, joined)
        return hubs


@dataclass(slots=True)
class FarmTopology:
    """The full social wiring recipe for one farm's pool.

    Composes a direct-edge structure (pairs/triplets or dense community)
    with a hub layer for mutual-friend density.  Either part may be absent.
    """

    pairs: PairTripletTopology = None
    dense: DenseCommunityTopology = None
    hubs: HubTopology = None

    def wire_pool(
        self,
        network: SocialNetwork,
        accounts: Sequence[UserId],
        rng: RngStream,
        farm_name: str,
        age: Categorical,
    ) -> None:
        """Apply every configured layer to a freshly created pool segment."""
        if self.pairs is not None:
            self.pairs.wire(network, accounts, rng.child("pairs"))
        if self.dense is not None:
            self.dense.wire(network, accounts, rng.child("dense"))
        if self.hubs is not None:
            self.hubs.wire(network, accounts, rng.child("hubs"), farm_name, age)
