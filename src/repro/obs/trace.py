"""Deterministic span-tree tracing for linking decisions.

One *trace* is the full decision record of one link request: a root span
(``link.request``) with child spans for candidate generation, the three
feature computations and score combination, each carrying structured
attributes (candidate counts, score terms, the chosen entity, the
abstention signal) and typed events (degradations, breaker transitions,
dead letters).  Aggregate accuracy metrics tell you *that* behavior
drifted; a trace tells you *where* — which is why the golden-trace suite
(``tests/golden/``) byte-compares live traces against committed fixtures.

Determinism is the design center: the tracer never reads a wall clock.
Timestamps come from an injected clock; the default :class:`TickClock`
returns 0, 1, 2, … so two identical seeded runs produce byte-identical
exports, which is what lets the golden traces be committed.  Production callers wanting real
durations inject ``time.perf_counter`` — the trace *structure* stays
identical either way, only the timestamps change.

Overhead discipline: the process-global :data:`TRACE` is disabled by
default, and a disabled :meth:`Tracer.span` returns a shared no-op span
whose methods do nothing — the linking hot path pays one attribute check
per span site.  The tracer keeps one span stack and holds no lock, so it
must only be enabled where one thread links at a time (tests).  ``repro serve`` runs ``link()`` on ``ThreadingHTTPServer``
handler threads and never enables it; while disabled, no tracer state is
written, so concurrent handlers are safe.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

__all__ = [
    "Span",
    "SpanEvent",
    "TickClock",
    "TRACE",
    "Tracer",
]

#: Finished spans kept per tracer; beyond this, new spans are counted in
#: :attr:`Tracer.dropped` instead of stored (a long traced stream must
#: not grow memory without bound).
MAX_SPANS = 100_000


class TickClock:
    """Logical clock: every read returns the next integer as a float.

    Start/end/event timestamps then encode *ordering*, not duration —
    which is exactly what a golden trace should pin down.  A fresh
    tracer (or :meth:`Tracer.reset`) restarts the sequence at 0, so
    repeated runs of the same workload are byte-identical.
    """

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        self._now = start

    def __call__(self) -> float:
        value = float(self._now)
        self._now += 1
        return value


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """A point-in-time occurrence inside a span (degradation, trip, …)."""

    name: str
    time: float
    attributes: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "time": self.time,
            "attributes": dict(self.attributes),
        }


class Span:
    """One live-or-finished span; context-manager protocol closes it."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "events",
        "_tracer",
    )

    #: Real spans record attribute writes; the no-op span advertises
    #: ``recording = False`` so callers can skip expensive attribute
    #: computation when tracing is off.
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attributes: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        self.attributes = attributes
        self.events: List[SpanEvent] = []

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: object) -> None:
        self.events.append(
            SpanEvent(name=name, time=self._tracer.now(), attributes=attributes)
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self, exc_type)
        return False

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "events": [event.as_dict() for event in self.events],
        }


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    recording = False

    def set_attribute(self, key: str, value: object) -> None:
        return None

    def add_event(self, name: str, **attributes: object) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span-tree collector with an injected clock (one thread at a time).

    Stack discipline guarantees well-formed trees: :meth:`span` parents
    the new span under the innermost open span (or starts a new trace),
    and closing restores the parent — so every child's ``[start, end]``
    interval nests inside its parent's, a property the regression suite
    asserts under random operation sequences.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._owns_clock = clock is None
        self._clock: Callable[[], float] = clock if clock is not None else TickClock()
        self._enabled = False
        self._stack: List[Span] = []
        self._finished: List[Span] = []
        self._next_span_id = 0
        self._next_trace_id = 0
        self.dropped = 0

    # ------------------------------------------------------------------ #
    # switches
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop all spans and restart ids (and an owned TickClock) at 0.

        The switch state is kept, as in :meth:`MetricsRegistry.reset`.
        An *injected* clock is the caller's to reset — the tracer only
        re-zeroes the deterministic default it constructed itself.
        """
        self._stack.clear()
        self._finished.clear()
        self._next_span_id = 0
        self._next_trace_id = 0
        self.dropped = 0
        if self._owns_clock:
            self._clock = TickClock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        """One clock read (spans and events share the same time base)."""
        return self._clock()

    def span(self, name: str, **attributes: object) -> object:
        """Open a span under the current one (context manager).

        Disabled tracers return the shared no-op span: the call costs
        one attribute check and no allocation beyond the kwargs dict.
        """
        if not self._enabled:
            return _NOOP_SPAN
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            name=name,
            start=self._clock(),
            attributes=dict(attributes),
        )
        self._next_span_id += 1
        self._stack.append(span)
        return span

    def event(self, name: str, **attributes: object) -> None:
        """Attach an event to the innermost open span.

        Outside any span (e.g. a breaker tripping from an administrative
        probe) the event becomes its own instantaneous single-span trace,
        so nothing observable is ever silently dropped.
        """
        if not self._enabled:
            return
        if self._stack:
            self._stack[-1].add_event(name, **attributes)
            return
        with self.span(name) as span:
            span.add_event(name, **attributes)

    def _finish(self, span: Span, exc_type: Optional[type]) -> None:
        span.end = self._clock()
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        # tolerate out-of-order exits defensively: remove wherever it is
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)
        if len(self._finished) >= MAX_SPANS:
            self.dropped += 1
            return
        self._finished.append(span)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def finished_spans(self) -> List[Span]:
        """Finished spans in completion order (children before parents)."""
        return list(self._finished)

    def drain(self) -> List[Span]:
        """Return finished spans and clear them (export checkpoint)."""
        spans = list(self._finished)
        self._finished.clear()
        return spans

    @property
    def open_spans(self) -> int:
        return len(self._stack)


#: The process-global tracer every instrumented module records into
#: (disabled by default; tests enable it).
TRACE = Tracer()
