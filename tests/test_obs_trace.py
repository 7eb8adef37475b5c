"""Tracer unit tests: stack discipline, determinism, overhead switches."""

import pytest

from repro.obs import trace
from repro.obs.trace import TRACE, TickClock, Tracer


def make_tracer(**kwargs) -> Tracer:
    tracer = Tracer(**kwargs)
    tracer.enable()
    return tracer


class TestTickClock:
    def test_monotone_integers(self):
        clock = TickClock()
        assert [clock() for _ in range(4)] == [0.0, 1.0, 2.0, 3.0]

    def test_custom_start(self):
        assert TickClock(start=7)() == 7.0


class TestSpanTree:
    def test_root_then_child_parenting(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_sibling_roots_get_new_trace_ids(self):
        tracer = make_tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None

    def test_child_interval_nested_in_parent(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert root.start <= child.start <= child.end <= root.end

    def test_finished_in_completion_order(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["child", "root"]

    def test_attributes_and_events(self):
        tracer = make_tracer()
        with tracer.span("root", surface="jordan") as span:
            span.set_attribute("candidates", 3)
            span.add_event("degraded", reason="circuit_open")
        assert span.attributes == {"surface": "jordan", "candidates": 3}
        assert span.events[0].name == "degraded"
        assert span.events[0].attributes == {"reason": "circuit_open"}
        assert span.start <= span.events[0].time <= span.end

    def test_exception_records_error_and_closes(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                raise RuntimeError("boom")
        (root,) = tracer.finished_spans()
        assert root.attributes["error"] == "RuntimeError"
        assert tracer.open_spans == 0

    def test_event_outside_any_span_becomes_own_trace(self):
        tracer = make_tracer()
        tracer.event("breaker.open", reason="probe failed")
        (span,) = tracer.finished_spans()
        assert span.parent_id is None
        assert span.events[0].attributes == {"reason": "probe failed"}

    def test_tracer_event_attaches_to_innermost(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with tracer.span("child") as child:
                tracer.event("tick")
        assert child.events[0].name == "tick"


class TestSwitches:
    def test_disabled_by_default_returns_noop(self):
        tracer = Tracer()
        span = tracer.span("root")
        assert span.recording is False
        with span:
            span.set_attribute("ignored", 1)
            span.add_event("ignored")
        assert tracer.finished_spans() == []

    def test_disabled_event_is_free(self):
        tracer = Tracer()
        tracer.event("ignored")
        assert tracer.finished_spans() == []

    def test_global_trace_disabled_by_default(self):
        assert TRACE.enabled is False

    def test_reset_restarts_ids_and_owned_clock(self):
        tracer = make_tracer()
        with tracer.span("first"):
            pass
        tracer.reset()
        with tracer.span("second") as span:
            pass
        assert span.span_id == 0
        assert span.trace_id == 0
        assert span.start == 0.0

    def test_reset_keeps_switch(self):
        tracer = make_tracer()
        tracer.reset()
        assert tracer.enabled

    def test_injected_clock_not_reset(self):
        clock = TickClock()
        tracer = make_tracer(clock=clock)
        with tracer.span("first"):
            pass
        tracer.reset()
        with tracer.span("second") as span:
            pass
        assert span.start > 0.0  # the caller's clock kept ticking

    def test_drain_clears(self):
        tracer = make_tracer()
        with tracer.span("root"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.finished_spans() == []


class TestBounds:
    def test_max_spans_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_SPANS", 2)
        tracer = make_tracer()
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.finished_spans()) == 2
        assert tracer.dropped == 2
