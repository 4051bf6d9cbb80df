"""A small deterministic discrete-event simulation kernel.

Everything that *happens over time* in the reproduction — ad impressions,
farm like deliveries, crawler polls, the termination sweep — is scheduled on
one :class:`repro.sim.engine.EventEngine` so that a whole multi-week measurement study runs in
milliseconds while preserving exact event ordering.
"""
