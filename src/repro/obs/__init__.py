"""``repro.obs`` — the unified telemetry layer.

Three pillars, documented in ``docs/OBSERVABILITY.md``:

* :mod:`repro.obs.trace` — structured hierarchical spans with
  thread-safe JSON-lines export (``REPRO_TRACE=out.jsonl`` or
  :func:`configure`); near-zero overhead when disabled.
* :mod:`repro.obs.metrics` — the labelled counter/gauge/histogram
  registry with JSON-snapshot and Prometheus-text exporters, plus
  adapters binding series to the C/R runtime's own counts
  (``StageCounter`` / ``RuntimeMetrics`` / ``DrainStats``), read at
  scrape time.
* :mod:`repro.obs.drift` — measured-vs-model drift reports comparing
  live telemetry against ``repro.core.model`` predictions.

Two service-facing companions ride on the pillars:

* :mod:`repro.obs.flight` — an always-on, allocation-bounded flight
  recorder of recent request trees (``/debug/requests``,
  ``/debug/trace/<id>``).
* :mod:`repro.obs.slo` — latency objectives with rolling good/bad
  counters and multi-window error-budget burn rates.

The checkpoint runtime, the NDP drain daemon, the restore path, the
stream codecs and the simulation pool are instrumented through this
package; ``repro trace`` / ``repro metrics`` surface it on the CLI.
"""

from . import drift, flight, metrics, slo, trace
from .flight import FlightRecorder, span_tree
from .slo import SLOTarget, SLOTracker, parse_slo
from .drift import DriftReport, DriftRow, blocked_drift, breakdown_drift, drain_drift
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    register_drain_stats,
    register_runtime_metrics,
    register_stage_counter,
)
from .trace import (
    SPAN_FIELDS,
    TraceContext,
    Tracer,
    configure,
    current_context,
    disable,
    emit,
    enabled,
    get_tracer,
    new_trace_id,
    root_context,
    run_with_context,
    span,
    use_context,
    validate_file,
    validate_record,
    validate_request_trees,
)

__all__ = [
    "trace",
    "metrics",
    "drift",
    "flight",
    "slo",
    # tracing
    "SPAN_FIELDS",
    "TraceContext",
    "Tracer",
    "configure",
    "current_context",
    "disable",
    "emit",
    "enabled",
    "get_tracer",
    "new_trace_id",
    "root_context",
    "run_with_context",
    "span",
    "use_context",
    "validate_file",
    "validate_record",
    "validate_request_trees",
    # flight recorder / SLOs
    "FlightRecorder",
    "span_tree",
    "SLOTarget",
    "SLOTracker",
    "parse_slo",
    # metrics
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "register_drain_stats",
    "register_runtime_metrics",
    "register_stage_counter",
    # drift
    "DriftReport",
    "DriftRow",
    "blocked_drift",
    "breakdown_drift",
    "drain_drift",
]
