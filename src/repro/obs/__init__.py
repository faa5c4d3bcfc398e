"""Observability: span tracing, metrics, and perf reporting.

Three pieces (see DESIGN.md, "Observability"):

- :mod:`repro.obs.trace` -- nested, timed spans with attributes and a
  JSONL event sink.  The module-level *current tracer* defaults to a
  zero-allocation no-op, so instrumented hot paths cost nothing unless
  a real :class:`Tracer` is installed (``--trace`` / ``--profile`` on
  the CLI, or :func:`use_tracer` from code).
- :mod:`repro.obs.metrics` -- a registry of named counters, gauges,
  and histograms.  ``prove_termination`` installs a fresh registry
  around each whole run, firewall included, and stores its snapshot in
  ``AnalysisStats.metrics``, the run's one record of counts.
- :mod:`repro.obs.report` -- ``python -m repro.obs.report trace.jsonl``
  renders a per-phase time breakdown (self vs. cumulative, call
  counts, hottest spans) from a trace file.
- :mod:`repro.obs.telemetry` -- the worker pool's fleet event channel
  (lifecycle events + heartbeats, ``events.jsonl``) and the live
  progress renderer of ``python -m repro bench``.
- :mod:`repro.obs.trajectory` -- ``python -m repro trajectory`` aligns
  ``BENCH_*.json`` histories and corpus stores across commits and
  gates on thresholded perf regressions (exit 3).
"""

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (FleetMonitor, FleetState, Telemetry,
                                 read_events)
from repro.obs.trace import (NULL_TRACER, Tracer, get_tracer, set_tracer,
                             use_tracer)

__all__ = [
    "metrics",
    "MetricsRegistry",
    "NULL_TRACER",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "Telemetry",
    "FleetState",
    "FleetMonitor",
    "read_events",
]
