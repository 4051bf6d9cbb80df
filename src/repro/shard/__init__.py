"""Supervised sharded execution with deterministic merge.

``repro.shard`` partitions a study into per-campaign shards, runs each in
its own worker process (own derived RngStream children, own EventEngine,
own :mod:`repro.ckpt` WAL) under a supervisor that detects hangs by
heartbeat, restarts crashed shards from their WALs with a bounded retry
budget, quarantines poison shards, and merges the per-shard results into
one dataset with order-canonicalized, completion-order-independent
output: ``--jobs N`` is byte-identical to ``--jobs 1``.

This package is the *only* place in the codebase allowed to touch process
state (``multiprocessing``, ``os.fork``, ``os.getpid``) — enforced
statically by the ``DET004`` lint rule.
"""
