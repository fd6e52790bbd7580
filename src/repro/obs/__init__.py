"""Unified observability: tracing spans, metrics, and a JSONL event sink.

The three pillars (all dependency-free):

* :mod:`repro.obs.trace` -- nested spans with a contextvar current-span
  stack, a no-op fast path when disabled (the default), and cross-process
  merging of pool-worker spans through the job payload;
* :mod:`repro.obs.metrics` -- an always-on registry of counters, gauges,
  and fixed-bucket histograms with ``snapshot()`` / ``diff_snapshots()``;
* :mod:`repro.obs.sink` -- a process-safe append-only JSONL event sink.

Plus the consumers: :mod:`repro.obs.validate` (trace schema validation,
used by CI), :mod:`repro.obs.report` (the ``repro-mms report``
attribution tables), :mod:`repro.obs.timeseries` (ring-buffer
:class:`MetricsRecorder` for windowed rates/percentiles),
:mod:`repro.obs.promtext` (Prometheus text exposition for the serve
layer), and :mod:`repro.obs.dashboard` (the ``repro-mms dashboard``
static HTML report).

Quick start::

    import repro
    from repro import obs

    prev = repro.configure(trace="run.jsonl")   # or REPRO_TRACE=run.jsonl
    with obs.trace_span("my.stage", points=176):
        ...
    obs.get_tracer().close()
    repro.configure(**prev)

    obs.registry().counter("my.counter").inc()
    obs.registry().snapshot()

Span/metric naming and the full schema are documented in
``docs/OBSERVABILITY.md``.
"""

from .dashboard import render_dashboard
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    quantile_from_buckets,
    registry,
)
from .promtext import render_prometheus
from .report import manifest_report, render_report, trace_report
from .sink import EventSink
from .timeseries import (
    MetricsRecorder,
    get_recorder,
    start_recorder,
    stop_recorder,
)
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    enabled,
    get_tracer,
    trace_span,
    traced,
)
from .validate import TraceSummary, TraceValidationError, validate_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "diff_snapshots",
    "quantile_from_buckets",
    "MetricsRecorder",
    "start_recorder",
    "get_recorder",
    "stop_recorder",
    "render_prometheus",
    "render_dashboard",
    "EventSink",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "enabled",
    "get_tracer",
    "trace_span",
    "traced",
    "TraceSummary",
    "TraceValidationError",
    "validate_trace",
    "manifest_report",
    "render_report",
    "trace_report",
]
