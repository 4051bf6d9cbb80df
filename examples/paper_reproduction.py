#!/usr/bin/env python
"""Full-scale reproduction of the paper's measurement study.

Runs the thirteen campaigns at the paper's scale (1000-like farm packages,
$6/day x 15 day ad campaigns), prints each table/figure next to the
published values, and writes the crawled dataset to ``honeypot_dataset.jsonl``
for further analysis.

Usage:
    python examples/paper_reproduction.py [--out DIR]
"""

import argparse
from pathlib import Path

from repro.analysis.report import (
    render_figure1,
    render_figure5,
    render_strategy_classification,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core import paperdata
from repro.core.comparison import render_comparison
from repro.core.experiment import HoneypotExperiment
from repro.util.tables import render_table


def print_table1_comparison(results) -> None:
    headers = ["Campaign", "Measured likes", "Paper likes", "Measured term.", "Paper term."]
    rows = []
    for row in results.table1:
        paper_likes = paperdata.TABLE1_LIKES[row.campaign_id]
        paper_term = paperdata.TABLE1_TERMINATED[row.campaign_id]
        rows.append([
            row.campaign_id,
            "-" if row.inactive else row.likes,
            "-" if paper_likes is None else paper_likes,
            "-" if row.inactive else row.terminated,
            "-" if paper_term is None else paper_term,
        ])
    print(render_table(headers, rows, title="Table 1: measured vs paper"))


def print_table3_comparison(results) -> None:
    headers = ["Provider", "Likers (paper)", "Median friends (paper)",
               "Friendships (paper)", "2-hop (paper)"]
    rows = []
    for stats in results.table3:
        paper = paperdata.TABLE3.get(stats.provider)
        if paper is None:
            continue
        likers, _, _, _, median, friendships, two_hop = paper
        rows.append([
            stats.provider,
            f"{stats.n_likers} ({likers})",
            f"{stats.friend_count.median:.0f} ({median})",
            f"{stats.direct_friendships} ({friendships})",
            f"{stats.two_hop_relations} ({two_hop})",
        ])
    print(render_table(headers, rows, title="Table 3: measured (paper)"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the dataset dump")
    parser.add_argument("--seed", type=int, default=20140312)
    args = parser.parse_args()

    print("Running paper-scale honeypot study (this takes ~10-20 s)...")
    experiment = HoneypotExperiment.paper_scale(seed=args.seed)
    results = experiment.run()
    dataset = results.dataset

    print()
    print_table1_comparison(results)
    print()
    print(render_table1(dataset))
    print()
    print(render_figure1(dataset))
    print()
    print(render_table2(dataset))
    print()
    print(render_strategy_classification(dataset))
    print()
    print(render_table3(dataset))
    print()
    print_table3_comparison(results)
    print()
    print(render_figure5(dataset))

    print()
    print(render_comparison(results))

    out_path = args.out / "honeypot_dataset.jsonl"
    dataset.to_jsonl(out_path)
    print(f"\nDataset written to {out_path} "
          f"({dataset.total_likes} likes, {len(dataset.likers)} likers).")

    print("\nShape checks:")
    for check in results.shape_checks():
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    return 0 if results.passed_all() else 1


if __name__ == "__main__":
    raise SystemExit(main())
