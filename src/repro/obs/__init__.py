"""repro.obs — zero-dependency observability for the serving stack.

Five layers, importable with no dependency on the rest of :mod:`repro`
(so :mod:`repro.core.model` can open spans without an import cycle):

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket
  histograms, and sliding-window counters in a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracing` — trace/span request timelines with
  thread-local and future-hand-off propagation, plus the
  :class:`SlowRing` behind ``/debug/slow``;
* :mod:`repro.obs.expo` — Prometheus text rendering/parsing and the
  scrape differ behind ``repro obs-report``;
* :mod:`repro.obs.quality` — live prequential Recall@K/MRR/NDCG joined
  from the ingest stream, stratified by cold-start bucket;
* :mod:`repro.obs.drift` — PSI/KL input-drift gauges vs a frozen
  reference window.
"""

from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedCounter,
    get_registry,
)
from .tracing import (
    SlowRing,
    Span,
    Trace,
    activate,
    current_trace,
    maybe_trace,
    span,
    span_creation_count,
)
from .expo import diff_scrapes, format_report, parse_prometheus, render_prometheus
from .quality import STRATA, QualityMonitor, cold_start_stratum
from .drift import DriftDetector

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCounter",
    "MetricsRegistry",
    "get_registry",
    "SlowRing",
    "Span",
    "Trace",
    "activate",
    "current_trace",
    "maybe_trace",
    "span",
    "span_creation_count",
    "diff_scrapes",
    "format_report",
    "parse_prometheus",
    "render_prometheus",
    "QualityMonitor",
    "cold_start_stratum",
    "STRATA",
    "DriftDetector",
]
