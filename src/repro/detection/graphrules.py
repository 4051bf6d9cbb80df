"""Graph-structure detection: the sybil-community angle.

The paper's Section 2 surveys sybil detectors built on "tightly-knit
community structures" (SybilGuard, SybilLimit, SybilInfer, ...) and its own
Figure 3 shows exactly such structure among farm likers: BoostLikes forms
one dense component, burst farms share mutual-friend hubs.  This detector
operationalises that: it builds the observed liker graph (direct plus
mutual-friend edges, the crawler's view) and flags likers sitting in
suspiciously large or dense components.

It is the complement of the volume/burst rules: those catch burst farms but
miss BoostLikes, whereas BoostLikes' defining feature — its dense internal
network — is precisely what this detector keys on.  Combining both closes
the paper's stealth-farm gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set

from repro.analysis.social import (
    observed_direct_edges,
    observed_mutual_friend_pairs,
)
from repro.honeypot.storage import HoneypotDataset
from repro.util.validation import check_positive, require

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first use
    import networkx as nx


@dataclass(frozen=True)
class SuspiciousComponent:
    """One flagged connected component of the observed liker graph."""

    user_ids: frozenset
    n_edges: int

    @property
    def size(self) -> int:
        """Number of likers in the component."""
        return len(self.user_ids)

    @property
    def density(self) -> float:
        """Edges / possible edges within the component."""
        if self.size < 2:
            return 0.0
        possible = self.size * (self.size - 1) / 2
        return self.n_edges / possible


@dataclass
class GraphCommunityDetector:
    """Flags likers embedded in large/dense observed communities.

    Attributes
    ----------
    min_component_size:
        Components with at least this many likers are suspicious: organic
        strangers who like the same obscure page should not be friends with
        each other at scale.
    min_density:
        Alternatively, small-but-cliquish components (pairs/triplet farms)
        are flagged when their density exceeds this and size >= 3.
    include_mutual:
        Whether mutual-friend (2-hop) relations count as edges, as in the
        paper's Figure 3b.
    """

    min_component_size: int = 8
    min_density: float = 0.8
    include_mutual: bool = True

    def __post_init__(self) -> None:
        check_positive(self.min_component_size, "min_component_size")
        require(0 < self.min_density <= 1, "min_density must be in (0, 1]")

    def build_observed_graph(self, dataset: HoneypotDataset) -> nx.Graph:
        """The crawler's view of liker-liker relations."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(dataset.likers.keys())
        graph.add_edges_from(observed_direct_edges(dataset))
        if self.include_mutual:
            graph.add_edges_from(observed_mutual_friend_pairs(dataset))
        return graph

    def suspicious_components(
        self, dataset: HoneypotDataset
    ) -> List[SuspiciousComponent]:
        """All components meeting the size or density criterion."""
        import networkx as nx

        graph = self.build_observed_graph(dataset)
        flagged: List[SuspiciousComponent] = []
        for nodes in nx.connected_components(graph):
            if len(nodes) < 2:
                continue
            sub = graph.subgraph(nodes)
            component = SuspiciousComponent(
                user_ids=frozenset(nodes), n_edges=sub.number_of_edges()
            )
            if component.size >= self.min_component_size:
                flagged.append(component)
            elif component.size >= 3 and component.density >= self.min_density:
                flagged.append(component)
        return flagged

    def flagged_users(self, dataset: HoneypotDataset) -> Set[int]:
        """Likers inside any suspicious component."""
        # repro-lint: allow-DET003 consumers evaluate via set algebra and len() (evaluate_flags)
        flagged: Set[int] = set()
        for component in self.suspicious_components(dataset):
            flagged.update(component.user_ids)
        return flagged


def combined_flags(
    dataset: HoneypotDataset,
    rule_flagged: Set[int],
    graph_detector: GraphCommunityDetector = None,
) -> Dict[str, Set[int]]:
    """Volume/burst rules + graph communities, separately and combined.

    Returns a dict with keys ``rules``, ``graph``, ``combined`` — the
    benchmark prints all three to show the stealth-farm gap closing.
    """
    detector = graph_detector if graph_detector is not None else GraphCommunityDetector()
    graph_flagged = detector.flagged_users(dataset)
    return {
        # repro-lint: allow-DET003 values evaluated via set algebra and len() (evaluate_flags)
        "rules": set(rule_flagged),
        "graph": graph_flagged,
        # repro-lint: allow-DET003 values evaluated via set algebra and len() (evaluate_flags)
        "combined": set(rule_flagged) | graph_flagged,
    }
