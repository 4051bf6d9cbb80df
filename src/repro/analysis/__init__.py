"""Analyses reproducing Section 4 of the paper.

Every function here consumes a :class:`repro.honeypot.storage.HoneypotDataset`
— the crawled, privacy-censored view — never simulator ground truth:

* :mod:`repro.analysis.demographics` — Figure 1 (geolocation) and Table 2
  (gender/age + KL divergence).
* :mod:`repro.analysis.temporal` — Figure 2 (cumulative like time series)
  and burstiness metrics.
* :mod:`repro.analysis.social` — Table 3 and Figure 3 (liker friendship
  graphs, 2-hop relations, component census).
* :mod:`repro.analysis.likes` — Figure 4 (page-like count CDFs vs baseline).
* :mod:`repro.analysis.similarity` — Figure 5 (Jaccard matrices).
* :mod:`repro.analysis.summary` — Table 1 (campaign summary).
* :mod:`repro.analysis.report` — plain-text rendering of all of the above.
"""
