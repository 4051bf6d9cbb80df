"""Graph metrics over user sets.

Quantifies the structural differences the paper describes qualitatively:
BoostLikes' pool is a *well-connected, clustered community* while burst
farms' pools are near-edgeless.  Used by the ablation benches and available
for ad-hoc analysis of any cohort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.osn.ids import UserId
from repro.osn.network import SocialNetwork
from repro.util.validation import require


@dataclass(slots=True, frozen=True)
class GraphMetrics:
    """Structure of the subgraph induced by a user set."""

    n_users: int
    n_edges: int
    mean_degree: float
    max_degree: int
    clustering_coefficient: float  # average, over nodes with degree >= 2
    largest_component: int
    n_components: int  # components with >= 2 nodes
    isolated_users: int

    @property
    def largest_component_fraction(self) -> float:
        """Largest component size / user count."""
        if self.n_users == 0:
            return 0.0
        return self.largest_component / self.n_users


def graph_metrics(network: SocialNetwork, users: Iterable[UserId]) -> GraphMetrics:
    """Compute :class:`GraphMetrics` for the subgraph induced by ``users``."""
    import networkx as nx

    user_list = list(users)
    require(len(user_list) > 0, "users must be non-empty")
    graph = network.graph.to_networkx(user_list)
    degrees = dict(graph.degree())
    components = [len(c) for c in nx.connected_components(graph) if len(c) >= 2]
    clustered_nodes = [n for n, d in degrees.items() if d >= 2]
    clustering = (
        nx.average_clustering(graph, nodes=clustered_nodes)
        if clustered_nodes
        else 0.0
    )
    return GraphMetrics(
        n_users=len(user_list),
        n_edges=graph.number_of_edges(),
        mean_degree=(
            sum(degrees.values()) / len(user_list) if user_list else 0.0
        ),
        max_degree=max(degrees.values(), default=0),
        clustering_coefficient=float(clustering),
        largest_component=max(components, default=0),
        n_components=len(components),
        isolated_users=sum(1 for d in degrees.values() if d == 0),
    )


def cohort_metrics(network: SocialNetwork, cohort: str) -> GraphMetrics:
    """Graph metrics for every account in a ground-truth cohort."""
    users = [profile.user_id for profile in network.users_in_cohort(cohort)]
    require(len(users) > 0, f"no users in cohort {cohort!r}")
    return graph_metrics(network, users)
