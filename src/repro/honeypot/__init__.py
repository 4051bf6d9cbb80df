"""The honeypot measurement methodology (the paper's core instrument).

Thirteen deliberately empty pages ("Virtual Electricity", described as not a
real page), five promoted with Facebook page-like ads and eight bought from
four like farms; a crawler polling each page every two hours for new likes;
profile crawls honouring privacy; and a follow-up termination check a month
later.  The output is a :class:`repro.honeypot.storage.HoneypotDataset` —
the only thing the analysis package ever sees.
"""
