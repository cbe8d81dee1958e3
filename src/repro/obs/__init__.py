"""Unified observability layer: metrics, tracing, SLO burn alerts.

Zero-dependency substrate the serving stack reports into:

* :class:`~repro.obs.registry.MetricRegistry` -- thread-safe
  Prometheus-shaped :class:`~repro.obs.registry.Counter` /
  :class:`~repro.obs.registry.Gauge` /
  :class:`~repro.obs.registry.Histogram` families with labels, a
  cardinality guard, immutable snapshots and text / JSON rendering.
* :class:`~repro.obs.trace.Trace` -- per-request span recorder
  (queue-wait → batch-assembly → kernel → post) whose spans tile the
  request's lifetime exactly, plus the bounded
  :class:`~repro.obs.trace.TraceLog` ring.
* :class:`~repro.obs.slo.SLOMonitor` -- rolling burn rates of the
  per-request latency / energy budgets, emitting structured
  :class:`~repro.obs.slo.SLOAlert` records.
* :class:`~repro.obs.clock.ManualClock` -- the deterministic clock every
  timestamp in the stack can be injected with, so none of this needs
  ``time.sleep`` to test.
"""

from repro.obs.clock import MONOTONIC_CLOCK, Clock, ManualClock
from repro.obs.registry import (
    DEFAULT_BATCH_SIZE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    CardinalityError,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    HistogramValue,
    MetricRegistry,
    MetricSnapshot,
    MetricsSnapshot,
    SeriesSnapshot,
)
from repro.obs.slo import SLOAlert, SLOMonitor
from repro.obs.trace import Span, Trace, TraceLog

__all__ = [
    "MetricRegistry",
    "MetricsSnapshot",
    "MetricSnapshot",
    "SeriesSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "CardinalityError",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_BATCH_SIZE_BUCKETS",
    "Span",
    "Trace",
    "TraceLog",
    "SLOAlert",
    "SLOMonitor",
    "ManualClock",
    "Clock",
    "MONOTONIC_CLOCK",
]
