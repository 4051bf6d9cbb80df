"""The simulated Facebook advertising platform.

Models page-like ads end to end: targeting specs, per-country click markets
(cost-per-click, audience weight, click-worker prevalence), daily-budget
pacing, click-to-like conversion, and the page-insights reports tool that
the paper used to collect aggregated liker demographics.

The platform's central reproduced behaviour is *cheap-market collapse*:
worldwide campaigns are paced toward the countries where clicks are
cheapest, which in 2014 meant the likes came almost exclusively from India
(paper Figure 1, FB-ALL bar) and largely from profiles that click and like
indiscriminately (click workers).
"""
