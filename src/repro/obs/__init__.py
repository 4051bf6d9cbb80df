"""Study-wide observability: metrics, event traces, and run manifests.

The measurement pipeline was a black box: after a run, the only health
signals were whatever counters each subsystem happened to keep.  This
package is the shared instrumentation layer the rest of the reproduction
reports into:

* :class:`repro.obs.metrics.MetricsRegistry` — process-local named counters, gauges, and
  wall-time spans.  Counters and gauges are driven exclusively by
  simulated (deterministic) quantities, so two runs with the same seed
  produce identical values; wall-clock timings live in a separate
  section that carries no determinism guarantee.
* :class:`repro.obs.trace.EventTrace` — a bounded, structured event log (JSON Lines on
  disk) for the rare-but-interesting moments: poll gaps, breaker trips,
  farm order placement, study phase transitions.
* :func:`repro.obs.manifest.build_manifest` — the run manifest: config fingerprint, seed,
  wall/virtual time, and every counter, emitted by
  ``repro-study run --metrics <path>``.

Disabled observability costs nothing: :data:`repro.obs.metrics.NULL_METRICS` is a shared
no-op registry, and every instrumented call site degrades to a cheap
no-op method call (hot loops batch their updates so even that cost is
paid once per run, not once per event).
"""
