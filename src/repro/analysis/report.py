"""Plain-text rendering of every table and figure.

Each ``render_*`` function returns a string shaped like the corresponding
paper artefact; :func:`full_report` concatenates all of them.  The benchmark
harness prints these next to the published values.

The renderers of the analyses the paper's shape checks also read take a
dataset or a :class:`DatasetAnalyses`, which computes each analysis once;
give :func:`full_report` the command's
:class:`~repro.core.results.ExperimentResults` and the report and the
checks share every result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Union

from repro.analysis.demographics import (
    Table2Row,
    country_distribution,
    table2,
)
from repro.analysis.economics import render_economics
from repro.analysis.overlap import render_overlap
from repro.analysis.likes import LikeCountSummary, like_count_summary
from repro.analysis.similarity import SimilarityMatrices, jaccard_matrices
from repro.analysis.social import (
    ProviderSocialStats,
    group_graph_stats,
    provider_social_stats,
)
from repro.analysis.summary import Table1Row, table1
from repro.analysis.temporal import (
    TemporalProfile,
    classify_strategy,
    cumulative_series,
    temporal_profile,
)
from repro.honeypot.storage import HoneypotDataset
from repro.osn.profile import AGE_BRACKETS
from repro.util.tables import render_matrix, render_percentage_bars, render_table


@dataclass
class DatasetAnalyses:
    """The analyses of one dataset that more than one reader needs, each
    computed on first use and then kept."""

    dataset: HoneypotDataset
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def table1(self) -> List[Table1Row]:
        """Campaign summary (paper Table 1)."""
        return table1(self.dataset)

    @cached_property
    def table2(self) -> List[Table2Row]:
        """Liker demographics (paper Table 2)."""
        return table2(self.dataset)

    @cached_property
    def table3(self) -> List[ProviderSocialStats]:
        """Social statistics per provider (paper Table 3)."""
        return provider_social_stats(self.dataset)

    @cached_property
    def figure4(self) -> List[LikeCountSummary]:
        """Page-like count summaries (paper Figure 4)."""
        return like_count_summary(self.dataset)

    @cached_property
    def figure5(self) -> SimilarityMatrices:
        """Jaccard similarity matrices (paper Figure 5)."""
        return jaccard_matrices(self.dataset)

    def temporal(self, campaign_id: str) -> TemporalProfile:
        """Burstiness profile of one campaign (paper Figure 2)."""
        key = ("temporal", campaign_id)
        if key not in self._cache:
            self._cache[key] = temporal_profile(self.dataset, campaign_id)
        return self._cache[key]


def _analyses(source: Union[HoneypotDataset, DatasetAnalyses]) -> DatasetAnalyses:
    if isinstance(source, DatasetAnalyses):
        return source
    return DatasetAnalyses(source)


def render_table1(source: Union[HoneypotDataset, DatasetAnalyses]) -> str:
    """Table 1: campaign summary."""
    headers = [
        "Campaign", "Provider", "Location", "Budget",
        "Duration", "Monitoring", "#Likes", "#Terminated",
    ]
    rows = []
    for row in _analyses(source).table1:
        rows.append([
            row.campaign_id,
            row.provider,
            row.location,
            row.budget,
            f"{row.duration_days:g} days",
            "-" if row.inactive else f"{row.monitored_days:.0f} days",
            "-" if row.inactive else row.likes,
            "-" if row.inactive else row.terminated,
        ])
    return render_table(headers, rows, title="Table 1: campaign summary")


def render_figure1(dataset: HoneypotDataset) -> str:
    """Figure 1: liker geolocation per campaign."""
    blocks: List[str] = ["Figure 1: geolocation of likers (per campaign)"]
    for campaign_id in dataset.campaign_ids():
        record = dataset.campaign(campaign_id)
        if record.inactive:
            continue
        buckets = country_distribution(dataset, campaign_id)
        blocks.append(render_percentage_bars(buckets.fractions, title=campaign_id))
    return "\n\n".join(blocks)


def render_table2(source: Union[HoneypotDataset, DatasetAnalyses]) -> str:
    """Table 2: gender and age statistics of likers."""
    headers = ["Campaign", "%F/%M"] + list(AGE_BRACKETS) + ["KL"]
    rows = []
    for row in _analyses(source).table2:
        cells = [row.campaign_id, f"{row.female_pct:.0f}/{row.male_pct:.0f}"]
        cells.extend(f"{row.age_pct[bracket]:.1f}" for bracket in AGE_BRACKETS)
        cells.append("-" if row.campaign_id == "Facebook" else f"{row.kl_divergence:.2f}")
        rows.append(cells)
    return render_table(headers, rows, title="Table 2: gender and age statistics")


def render_figure2(dataset: HoneypotDataset, horizon_days: float = 15.0) -> str:
    """Figure 2: cumulative likes per day (daily samples of the 2h series)."""
    series = {}
    xs: List[float] = []
    for campaign_id in dataset.campaign_ids():
        days, counts = cumulative_series(
            dataset, campaign_id, horizon_days=horizon_days
        )
        daily = [counts[i] for i in range(0, len(counts), 12)]  # every 24h
        xs = [days[i] for i in range(0, len(days), 12)]
        series[campaign_id] = daily
    headers = ["Day"] + list(series.keys())
    rows = []
    for i, day in enumerate(xs):
        rows.append([f"{day:.0f}"] + [series[c][i] for c in series])
    return render_table(headers, rows, title="Figure 2: cumulative likes over time")


def render_strategy_classification(
    source: Union[HoneypotDataset, DatasetAnalyses],
) -> str:
    """The burst/trickle split the paper infers from Figure 2."""
    headers = ["Campaign", "Likes", "Max 2h window", "Share", "Strategy"]
    rows = []
    analyses = _analyses(source)
    for campaign_id in analyses.dataset.campaign_ids():
        profile = analyses.temporal(campaign_id)
        rows.append([
            campaign_id,
            profile.total_likes,
            profile.max_2h_likes,
            f"{profile.max_2h_fraction * 100:.0f}%",
            classify_strategy(profile),
        ])
    return render_table(headers, rows, title="Delivery strategy classification")


def render_table3(source: Union[HoneypotDataset, DatasetAnalyses]) -> str:
    """Table 3: likers and friendships between likers."""
    headers = [
        "Provider", "#Likers", "#Public lists", "Avg#Friends",
        "Std", "Median", "#Friendships", "#2-hop",
    ]
    rows = []
    for stats in _analyses(source).table3:
        rows.append([
            stats.provider,
            stats.n_likers,
            f"{stats.n_public_friend_lists} ({stats.public_fraction * 100:.1f}%)",
            f"{stats.friend_count.mean:.0f}",
            f"{stats.friend_count.std:.0f}",
            f"{stats.friend_count.median:.0f}",
            stats.direct_friendships,
            stats.two_hop_relations,
        ])
    return render_table(headers, rows, title="Table 3: likers and friendships")


def render_figure3(dataset: HoneypotDataset) -> str:
    """Figure 3: component census of the liker graphs (direct and 2-hop)."""
    blocks = []
    for include_mutual, label in ((False, "direct"), (True, "direct + mutual")):
        headers = [
            "Provider", "Nodes w/ edges", "Edges", "Components",
            "Pairs", "Triplets", "Largest", "Connected frac",
        ]
        rows = []
        for stats in group_graph_stats(dataset, include_mutual=include_mutual):
            rows.append([
                stats.provider,
                stats.n_nodes_with_edges,
                stats.n_edges,
                stats.n_components,
                stats.n_pair_components,
                stats.n_triplet_components,
                stats.largest_component,
                f"{stats.connected_fraction * 100:.0f}%",
            ])
        blocks.append(
            render_table(headers, rows, title=f"Figure 3 ({label} relations)")
        )
    return "\n\n".join(blocks)


def render_figure4(source: Union[HoneypotDataset, DatasetAnalyses]) -> str:
    """Figure 4: page-like count medians per campaign vs baseline."""
    headers = ["Campaign", "Likers", "Median likes", "Mean", "x Baseline"]
    rows = []
    analyses = _analyses(source)
    summary = analyses.figure4
    for row in summary:
        rows.append([
            row.campaign_id,
            row.stats.count,
            f"{row.stats.median:.0f}",
            f"{row.stats.mean:.0f}",
            f"{row.median_ratio:.1f}x",
        ])
    baseline_median = summary[0].baseline_median if summary else 0.0
    rows.append([
        "Facebook (baseline)", len(analyses.dataset.baseline),
        f"{baseline_median:.0f}", "-", "1.0x",
    ])
    return render_table(headers, rows, title="Figure 4: page-like counts per liker")


def render_figure5(source: Union[HoneypotDataset, DatasetAnalyses]) -> str:
    """Figure 5: the two Jaccard similarity matrices (x100)."""
    matrices = _analyses(source).figure5
    page_block = render_matrix(
        matrices.campaign_ids,
        matrices.page_similarity,
        title="Figure 5a: page-like Jaccard similarity (x100)",
    )
    user_block = render_matrix(
        matrices.campaign_ids,
        matrices.user_similarity,
        title="Figure 5b: liker Jaccard similarity (x100)",
    )
    return page_block + "\n\n" + user_block


def full_report(source: Union[HoneypotDataset, DatasetAnalyses]) -> str:
    """All tables and figures, concatenated."""
    analyses = _analyses(source)
    dataset = analyses.dataset
    return "\n\n".join([
        render_table1(analyses),
        render_figure1(dataset),
        render_table2(analyses),
        render_figure2(dataset),
        render_strategy_classification(analyses),
        render_table3(analyses),
        render_figure3(dataset),
        render_figure4(analyses),
        render_figure5(analyses),
        render_overlap(dataset),
        render_economics(dataset),
    ])
