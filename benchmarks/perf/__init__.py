"""Performance benchmarks for the simulation pipeline.

Unlike the figure/table benchmarks in ``benchmarks/``, which check *what*
the paper-scale study produces, this package tracks *how fast* it runs:

* :mod:`benchmarks.perf.profile_pipeline` — ``make profile``: times and
  cProfiles ``HoneypotExperiment.paper_scale().run()`` and writes
  ``BENCH_pipeline.json`` so future PRs have a perf trajectory to regress
  against.
"""
