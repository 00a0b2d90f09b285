"""End-to-end and per-layer benchmark of the ReSim reproduction.

``perfbench/run.py`` is the command; this package holds the workloads
(:mod:`.workloads`), the per-layer probes (:mod:`.layers`), the span
recorder of the traced run (:mod:`.tracing`) and the statistics
helpers (:mod:`.metrics`).  ``perfbench/METRICS.md`` maps every metric
to its layer and to the end-to-end metric it should move.
"""
