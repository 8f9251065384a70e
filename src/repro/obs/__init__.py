"""Observability substrate: metrics, tracing, SLOs, profiling, forensics.

One telemetry story for the whole pipeline.  Components accept an
optional ``registry`` (:class:`MetricsRegistry`) and ``tracer``
(:class:`Tracer`); components whose legacy counters migrated onto the
registry (streaming, quarantine, supervisor, flow table) default to a
private real registry so their counters always count, while hot-path
components (SGNS training, per-session profiling) default to the no-op
:data:`NULL_REGISTRY` / :data:`NULL_TRACER` and pay nothing unless a
real instrument is passed in.

On top of the aggregate layer sits the deep introspection plane:

* request-scoped tracing — :class:`TraceContext` + :class:`HeadSampler`
  thread one sampled session's journey (ingest → profile → index
  search) into a single trace, and latency histograms export the trace
  id as an OpenMetrics exemplar;
* :class:`SLOEngine` — declarative objectives with multi-window
  burn-rate alerting, served at ``/slo`` and ``/alerts``;
* :class:`SamplingProfiler` — continuous ~100 Hz stack sampling with
  flamegraph/speedscope export, on demand via ``/profile``;
* :class:`FlightRecorder` — a bounded ring of recent structured events
  dumped on crash, SIGTERM or demand, collected by ``repro doctor``.
"""

from repro.obs.doctor import collect_bundle
from repro.obs.drift import DriftConfig, DriftMonitor, DriftReport
from repro.obs.flight import FlightRecorder
from repro.obs.flush import MetricsFlusher
from repro.obs.logging import (
    JsonLogger,
    bind_tracer,
    get_logger,
    get_run_id,
    new_run_id,
    set_level,
    set_run_id,
    set_stream,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_FAST,
    LATENCY_BUCKETS_SLOW,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    label_snapshot,
    snapshot_to_prometheus,
    validate_buckets,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, AdminServer
from repro.obs.slo import SLO, SLOEngine, SLOState, default_slos, fleet_slos
from repro.obs.tracing import (
    HeadSampler,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    current_exemplar,
    current_trace,
    span_from_wire,
    span_to_wire,
    use_trace,
)

__all__ = [
    "AdminServer",
    "Counter",
    "DEFAULT_BUCKETS",
    "DriftConfig",
    "DriftMonitor",
    "DriftReport",
    "FlightRecorder",
    "Gauge",
    "HeadSampler",
    "Histogram",
    "JsonLogger",
    "LATENCY_BUCKETS_FAST",
    "LATENCY_BUCKETS_SLOW",
    "MetricError",
    "MetricsFlusher",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "PROMETHEUS_CONTENT_TYPE",
    "SIZE_BUCKETS",
    "SLO",
    "SLOEngine",
    "SLOState",
    "SamplingProfiler",
    "Span",
    "TraceContext",
    "Tracer",
    "bind_tracer",
    "collect_bundle",
    "current_exemplar",
    "current_trace",
    "default_slos",
    "fleet_slos",
    "get_logger",
    "get_run_id",
    "label_snapshot",
    "new_run_id",
    "set_level",
    "set_run_id",
    "set_stream",
    "snapshot_to_prometheus",
    "span_from_wire",
    "span_to_wire",
    "use_trace",
    "validate_buckets",
]
