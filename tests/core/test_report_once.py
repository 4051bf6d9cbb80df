"""``report`` and ``run --report`` compute each shared analysis once.

Both commands print the full report and then evaluate the paper's shape
checks.  The two read the same cached analyses, so Table 3, Figure 4 and
Figure 5 are each computed once per command.  Calls are counted with
cProfile, which sees every call of a function whatever name it was
imported under.
"""

import cProfile
import pstats

from repro.analysis.likes import like_count_summary
from repro.analysis.similarity import jaccard_matrices
from repro.analysis.social import provider_social_stats
from repro.cli import main

SHARED = (provider_social_stats, like_count_summary, jaccard_matrices)


def call_counts(argv):
    profiler = cProfile.Profile()
    profiler.runcall(main, argv)
    stats = pstats.Stats(profiler).stats
    counts = {}
    for fn in SHARED:
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[fn.__name__] = stats[key][1] if key in stats else 0
    return counts


ONCE = {fn.__name__: 1 for fn in SHARED}


def test_report_computes_each_analysis_once(small_dataset, tmp_path, capsys):
    path = tmp_path / "study.jsonl"
    small_dataset.to_jsonl(path)
    assert call_counts(["report", str(path)]) == ONCE
    assert "Shape checks:" in capsys.readouterr().out


def test_run_report_computes_each_analysis_once(tmp_path, capsys):
    argv = ["run", "--out", str(tmp_path / "study.jsonl"), "--report"]
    assert call_counts(argv) == ONCE
    assert "Figure 5a" in capsys.readouterr().out
