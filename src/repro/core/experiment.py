"""The end-to-end experiment runner.

Thin orchestration over :class:`repro.honeypot.study.HoneypotStudy` that
returns analysis-ready :class:`repro.core.results.ExperimentResults`.  This
is the main entry point a downstream user calls:

>>> from repro.core.experiment import HoneypotExperiment
>>> from repro.honeypot.study import StudyConfig
>>> results = HoneypotExperiment(StudyConfig.small()).run()   # doctest: +SKIP
>>> results.passed_all()                                      # doctest: +SKIP
True
"""

from __future__ import annotations

from typing import Optional

from repro.core.results import ExperimentResults
from repro.honeypot.study import HoneypotStudy, StudyArtifacts, StudyConfig


class HoneypotExperiment:
    """Run the comparative honeypot measurement study."""

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config if config is not None else StudyConfig()
        self._artifacts: Optional[StudyArtifacts] = None

    @property
    def artifacts(self) -> StudyArtifacts:
        """Simulator ground truth from the last run (for detector work)."""
        if self._artifacts is None:
            raise RuntimeError("experiment has not been run yet")
        return self._artifacts

    def run(self) -> ExperimentResults:
        """Execute the study and wrap its dataset in analysis results."""
        self._artifacts = HoneypotStudy(self.config).run()
        return ExperimentResults(dataset=self._artifacts.dataset)

    @staticmethod
    def paper_scale(seed: int = 20140312) -> "HoneypotExperiment":
        """An experiment at the paper's full scale (1000-like packages)."""
        return HoneypotExperiment(StudyConfig(seed=seed))

    @staticmethod
    def small(seed: int = 20140312) -> "HoneypotExperiment":
        """A fast, shape-preserving experiment for tests and examples."""
        return HoneypotExperiment(StudyConfig.small(seed=seed))
