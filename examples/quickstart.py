#!/usr/bin/env python
"""Quickstart: run a small honeypot study and print the paper's artefacts.

This runs the full pipeline — simulated Facebook, ad platform, four like
farms, thirteen honeypot pages, the 2-hour crawler, the month-later
termination sweep — at 1/10 scale (a couple of seconds), then renders every
table and figure from the crawled dataset and evaluates the paper's
qualitative findings as shape checks.

Usage:
    python examples/quickstart.py [seed]
"""

import sys

from repro.analysis.report import full_report
from repro.core.experiment import HoneypotExperiment


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20140312
    print(f"Running small-scale honeypot study (seed={seed})...")
    experiment = HoneypotExperiment.small(seed=seed)
    results = experiment.run()

    print()
    print(full_report(results.dataset))

    print()
    print("Shape checks against the paper's findings:")
    failed = 0
    for check in results.shape_checks():
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    print()
    total = len(results.shape_checks())
    print(f"{total - failed}/{total} shape checks passed.")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
