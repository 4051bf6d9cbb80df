"""Reproduction of "Paying for Likes? Understanding Facebook Like Fraud
Using Honeypots" (De Cristofaro, Friedman, Jourjon, Kaafar, Shafiq --
IMC 2014) on a fully simulated substrate.

The package layers cleanly:

* :mod:`repro.osn` -- the simulated social network (users, pages, likes,
  friendships, privacy, the public directory, termination sweeps).
* :mod:`repro.ads` -- the page-like ads platform (targeting, per-country
  click markets, budget pacing, click workers, insights reports).
* :mod:`repro.farms` -- the four like farms with their two modi operandi
  (burst bots vs stealthy trickle), account pools, and topologies.
* :mod:`repro.honeypot` -- the paper's instrument: honeypot pages, the
  2-hour crawler, profile crawling under privacy, dataset storage.
* :mod:`repro.analysis` -- Section 4's analyses: every table and figure.
* :mod:`repro.detection` -- the fraud-detection follow-up the paper calls
  for, evaluated against simulator ground truth.
* :mod:`repro.core` -- the experiment runner, published paper values, and
  shape checks.

Package ``__init__`` modules import nothing (``repro.store``,
``repro.detection`` and ``repro.lint`` keep their re-exports), so a
process loads only the modules its command runs: import each name from
its defining module.

Quickstart::

    from repro.core.experiment import HoneypotExperiment
    results = HoneypotExperiment.small().run()
    print(results.passed_all())
"""

__version__ = "1.0.0"
