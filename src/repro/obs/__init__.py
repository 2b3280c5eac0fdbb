"""Observability: span tracing, metrics, and the stack's wiring layer.

Three modules:

* :mod:`repro.obs.trace` — :class:`Trace`/:class:`Span`: nested wall-clock
  spans with contextvar parent propagation, pool-worker span shipping
  (:class:`SpanBundle` / :meth:`Trace.adopt`) and a Chrome ``trace_event``
  exporter (open the file in ``chrome://tracing`` or Perfetto).
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket histograms with ``snapshot()`` and a Prometheus-style
  ``render()``; the process-wide default registry is disabled (no-op cost)
  until :func:`get_registry`\\ ``().enable()``.
* :mod:`repro.obs.instrument` — the helpers (:func:`maybe_span`,
  :func:`phase_timings`) and shared default-registry instruments the core,
  dynamic, durability and serving layers are wired through.

Typical use::

    from repro.obs import Trace
    trace = Trace()
    result = solve(
        quality, metric, tradeoff=0.5, p=10, shards=8,
        control=RunControl(trace=trace),
    )
    trace.export("solve.trace.json")        # open in Perfetto
    result.metadata["timings"]              # compact per-phase breakdown
"""

from repro.obs.instrument import maybe_span, maybe_start_span, phase_timings
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import Span, SpanBundle, SpanHandle, Stopwatch, Trace, timed

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "SpanBundle",
    "SpanHandle",
    "Stopwatch",
    "Trace",
    "get_registry",
    "maybe_span",
    "maybe_start_span",
    "phase_timings",
    "timed",
]
