"""Social graph analysis (paper Section 4.3, Table 3, Figure 3).

Works purely from crawled friend lists: a friendship between two likers is
*observable* when at least one of them lists the other publicly, and a
mutual friend is observable only when both likers' lists are public and
intersect.  These are exactly the paper's lower-bound semantics ("some
friendship relations may be hidden... these numbers only represent a lower
bound").

Likers are grouped by provider; users who liked both AuthenticLikes and
MammothSocials pages form the separate ALMS group, as in the paper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.stats import SummaryStats, summary_stats
from repro.farms.catalog import AUTHENTICLIKES, MAMMOTHSOCIALS
from repro.honeypot.campaignspec import FACEBOOK_PROVIDER
from repro.honeypot.storage import HoneypotDataset, LikerRecord

ALMS_GROUP = "ALMS"

#: Display order for Table 3 rows.
PROVIDER_ORDER = (
    FACEBOOK_PROVIDER,
    "BoostLikes.com",
    "SocialFormula.com",
    AUTHENTICLIKES,
    MAMMOTHSOCIALS,
    ALMS_GROUP,
)


def group_likers_by_provider(dataset: HoneypotDataset) -> Dict[str, List[LikerRecord]]:
    """Assign each liker to a provider group (with the ALMS split).

    A liker who liked pages from both AuthenticLikes and MammothSocials
    campaigns goes to ``ALMS``; everyone else goes to the provider of the
    first campaign they were observed on.
    """
    groups: Dict[str, List[LikerRecord]] = defaultdict(list)
    for liker in dataset.likers.values():
        providers = [
            dataset.campaign(campaign_id).provider
            for campaign_id in liker.campaign_ids
        ]
        provider_set = set(providers)
        if AUTHENTICLIKES in provider_set and MAMMOTHSOCIALS in provider_set:
            groups[ALMS_GROUP].append(liker)
        else:
            groups[providers[0]].append(liker)
    return dict(groups)


def observed_direct_edges(dataset: HoneypotDataset) -> Set[Tuple[int, int]]:
    """Liker-liker friendships visible to the crawler.

    An edge is observed when either endpoint's public friend list contains
    the other liker.
    """
    liker_ids = set(dataset.likers.keys())
    # repro-lint: allow-DET003 consumers aggregate order-free (sum of indicator counts, nx component census)
    edges: Set[Tuple[int, int]] = set()
    for liker in dataset.likers.values():
        for friend in liker.visible_friend_ids.tolist():
            if friend in liker_ids and friend != liker.user_id:
                a, b = sorted((liker.user_id, friend))
                edges.add((a, b))
    return edges


def observed_mutual_friend_pairs(dataset: HoneypotDataset) -> Set[Tuple[int, int]]:
    """Pairs of likers sharing at least one mutual friend in public lists.

    Built via an inverted index friend -> [likers listing them], so runtime
    is linear in list sizes plus quadratic only inside each shared-friend
    bucket (hubs are small).
    """
    index: Dict[int, List[int]] = defaultdict(list)
    for liker in dataset.likers.values():
        for friend in liker.visible_friend_ids.tolist():
            if friend != liker.user_id:
                index[friend].append(liker.user_id)
    # repro-lint: allow-DET003 consumers aggregate order-free (sum of indicator counts, nx component census)
    pairs: Set[Tuple[int, int]] = set()
    for listers in index.values():
        if len(listers) < 2:
            continue
        ordered = sorted(set(listers))
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                pairs.add((a, b))
    return pairs


@dataclass(frozen=True)
class ProviderSocialStats:
    """One row of the paper's Table 3."""

    provider: str
    n_likers: int
    n_public_friend_lists: int
    friend_count: SummaryStats  # over likers with public lists
    direct_friendships: int  # edges between likers involving this group
    two_hop_relations: int  # mutual-friend pairs involving this group

    @property
    def public_fraction(self) -> float:
        """Share of the group's likers with a public friend list."""
        if self.n_likers == 0:
            return 0.0
        return self.n_public_friend_lists / self.n_likers


def provider_social_stats(dataset: HoneypotDataset) -> List[ProviderSocialStats]:
    """Table 3: per-provider liker and friendship statistics."""
    groups = group_likers_by_provider(dataset)
    membership: Dict[int, str] = {}
    for provider, likers in groups.items():
        for liker in likers:
            membership[liker.user_id] = provider
    direct = observed_direct_edges(dataset)
    mutual = observed_mutual_friend_pairs(dataset)

    rows: List[ProviderSocialStats] = []
    for provider in PROVIDER_ORDER:
        likers = groups.get(provider, [])
        if not likers:
            continue
        ids = {liker.user_id for liker in likers}
        # A failed friend crawl is not a private list: partial records are
        # excluded from the public-list census rather than counted private,
        # keeping Table 3 the lower bound the paper describes.
        public = [
            liker
            for liker in likers
            if liker.friend_list_public and liker.has_friend_data
        ]
        friend_counts = [
            liker.declared_friend_count
            for liker in public
            if liker.declared_friend_count is not None
        ]
        rows.append(
            ProviderSocialStats(
                provider=provider,
                n_likers=len(likers),
                n_public_friend_lists=len(public),
                friend_count=summary_stats(friend_counts),
                direct_friendships=sum(
                    1 for a, b in direct if a in ids or b in ids
                ),
                two_hop_relations=sum(
                    1 for a, b in mutual if a in ids or b in ids
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class GroupGraphStats:
    """Structure of one group's observed liker graph (paper Figure 3)."""

    provider: str
    n_nodes_with_edges: int
    n_edges: int
    n_components: int
    n_pair_components: int
    n_triplet_components: int
    largest_component: int
    connected_fraction: float  # nodes with >= 1 edge / all group likers


def group_graph_stats(
    dataset: HoneypotDataset, include_mutual: bool = False
) -> List[GroupGraphStats]:
    """Figure 3's component census, per provider group.

    ``include_mutual=False`` analyses direct friendships (Figure 3a);
    ``True`` adds mutual-friend pairs as edges (Figure 3b).
    """
    import networkx as nx

    groups = group_likers_by_provider(dataset)
    edges = observed_direct_edges(dataset)
    if include_mutual:
        edges = edges | observed_mutual_friend_pairs(dataset)

    rows: List[GroupGraphStats] = []
    for provider in PROVIDER_ORDER:
        likers = groups.get(provider, [])
        if not likers:
            continue
        ids = {liker.user_id for liker in likers}
        graph = nx.Graph()
        graph.add_edges_from(
            (a, b) for a, b in edges if a in ids and b in ids
        )
        components = [len(c) for c in nx.connected_components(graph)]
        rows.append(
            GroupGraphStats(
                provider=provider,
                n_nodes_with_edges=graph.number_of_nodes(),
                n_edges=graph.number_of_edges(),
                n_components=len(components),
                n_pair_components=sum(1 for size in components if size == 2),
                n_triplet_components=sum(1 for size in components if size == 3),
                largest_component=max(components, default=0),
                connected_fraction=(
                    graph.number_of_nodes() / len(ids) if ids else 0.0
                ),
            )
        )
    return rows


def provider_membership(dataset: HoneypotDataset) -> Dict[int, str]:
    """Map liker id -> provider group label (with ALMS split)."""
    groups = group_likers_by_provider(dataset)
    return {
        liker.user_id: provider
        for provider, likers in groups.items()
        for liker in likers
    }


def groups_as_frozensets(dataset: HoneypotDataset) -> Dict[str, FrozenSet[int]]:
    """Provider group memberships as frozensets of liker ids."""
    return {
        # repro-lint: allow-DET003 frozenset values consumed via set algebra and len() only
        provider: frozenset(liker.user_id for liker in likers)
        for provider, likers in group_likers_by_provider(dataset).items()
    }
