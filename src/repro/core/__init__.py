"""The paper's primary contribution, packaged: the comparative honeypot
measurement methodology.

:class:`repro.core.experiment.HoneypotExperiment` runs the full study
(world -> promotions -> monitoring -> crawling -> analysis) and returns an
:class:`repro.core.results.ExperimentResults` that exposes every table and
figure plus shape comparisons against the published values in
:mod:`repro.core.paperdata`.
"""
