"""Run the doctest examples embedded in module docstrings."""

import doctest

import pytest

import repro.analysis.stats
import repro.core.experiment
import repro.osn.graph
import repro.osn.profile
import repro.sim.clock
import repro.sim.engine
import repro.sim.process
import repro.util.distributions
import repro.util.rng
import repro.util.tables
import repro.util.timeutil

MODULES = [
    repro.analysis.stats,
    repro.core.experiment,
    repro.osn.graph,
    repro.osn.profile,
    repro.sim.clock,
    repro.sim.engine,
    repro.sim.process,
    repro.util.distributions,
    repro.util.rng,
    repro.util.tables,
    repro.util.timeutil,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"
