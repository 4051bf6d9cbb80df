"""End-to-end benchmark of ``repro-study run``: workloads, metrics, traced layers.

Run with ``PYTHONPATH=src python -m benchmarks.e2e``; see README.md here
for the workloads, the metrics and their bounds.
"""
