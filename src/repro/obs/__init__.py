"""``repro.obs`` — structured tracing and metrics for the linking system.

Three pure-stdlib pieces:

* :mod:`repro.obs.trace` — a deterministic span-tree tracer (injected
  clocks, one root span per link request) behind the process-global
  :data:`TRACE`;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  behind :data:`METRICS`, mergeable across registries and able to
  absorb the :mod:`repro.perf` registry at export time;
* :mod:`repro.obs.export` — the schema-stable JSON-lines trace document
  (``repro trace``), its validator, and the field-level diff the
  golden-trace regression suite is built on.

:mod:`repro.obs.scenarios` (the fixture worlds behind ``repro trace``)
is deliberately *not* imported here: it wires real linkers, and the
instrumented core modules import this package — importing scenarios at
package level would create a cycle.
"""

from __future__ import annotations

from repro.obs.export import (
    diff_trace_documents,
    dump_trace_jsonl,
    load_trace_jsonl,
    render_trace_document,
    validate_trace_document,
)
from repro.obs.metrics import (
    METRICS,
    Histogram,
    MetricsRegistry,
    render_metrics_document,
    validate_metrics_document,
)
from repro.obs.trace import TRACE, Span, SpanEvent, TickClock, Tracer

__all__ = [
    "METRICS",
    "TRACE",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanEvent",
    "TickClock",
    "Tracer",
    "diff_trace_documents",
    "dump_trace_jsonl",
    "load_trace_jsonl",
    "render_metrics_document",
    "render_trace_document",
    "validate_metrics_document",
    "validate_trace_document",
]
