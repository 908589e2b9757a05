"""Observability: event tracing and metrics of the adaptivity pipeline."""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SeriesSampler,
    percentile,
)
from repro.telemetry.trace import (
    CATEGORY_ASSESSMENT,
    CATEGORY_FAILURE,
    CATEGORY_MONITORING,
    CATEGORY_QUERY,
    CATEGORY_RESPONSE,
    CATEGORY_SCHEDULER,
    TraceEvent,
    Tracer,
    format_timeline,
)

__all__ = [
    "CATEGORY_ASSESSMENT",
    "CATEGORY_FAILURE",
    "CATEGORY_MONITORING",
    "CATEGORY_QUERY",
    "CATEGORY_RESPONSE",
    "CATEGORY_SCHEDULER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SeriesSampler",
    "TraceEvent",
    "Tracer",
    "format_timeline",
    "percentile",
]
