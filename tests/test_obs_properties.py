"""Property-based checks: span-tree well-formedness and histogram
conservation under seeded random operation sequences.

These guard the *invariants* the golden suite relies on — any operation
sequence must yield a tree the validator accepts, and no observation may
ever leak out of a histogram's buckets — without pinning any particular
trace shape.
"""

import json
import random

import pytest

from repro.obs.export import render_trace_document, validate_trace_document
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    render_metrics_document,
    validate_metrics_document,
)
from repro.obs.trace import Tracer


def random_trace_workload(tracer: Tracer, rng: random.Random, steps: int) -> None:
    """Drive the tracer through a random open/close/event sequence."""
    open_spans = []
    for _ in range(steps):
        action = rng.random()
        if action < 0.45 and len(open_spans) < 6:
            open_spans.append(tracer.span(f"span{rng.randrange(4)}"))
        elif action < 0.75 and open_spans:
            open_spans.pop().__exit__(None, None, None)
        elif action < 0.9:
            tracer.event(f"event{rng.randrange(3)}", value=rng.randrange(10))
        elif open_spans:
            open_spans[-1].set_attribute(f"k{rng.randrange(3)}", rng.random())
    while open_spans:
        open_spans.pop().__exit__(None, None, None)


class TestSpanTreeProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_workloads_yield_wellformed_trees(self, seed):
        rng = random.Random(seed)
        tracer = Tracer()
        tracer.enable()
        random_trace_workload(tracer, rng, steps=rng.randrange(5, 80))
        assert tracer.open_spans == 0
        document = render_trace_document(tracer.drain(), "random_trace_workload")
        assert validate_trace_document(document) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_single_root_per_trace_under_random_nesting(self, seed):
        rng = random.Random(1000 + seed)
        tracer = Tracer()
        tracer.enable()
        random_trace_workload(tracer, rng, steps=60)
        spans = tracer.drain()
        roots_by_trace = {}
        for span in spans:
            if span.parent_id is None:
                roots_by_trace[span.trace_id] = (
                    roots_by_trace.get(span.trace_id, 0) + 1
                )
        assert set(roots_by_trace) == {s.trace_id for s in spans}
        assert all(count == 1 for count in roots_by_trace.values())

    @pytest.mark.parametrize("seed", range(10))
    def test_child_intervals_nest_under_random_workloads(self, seed):
        rng = random.Random(2000 + seed)
        tracer = Tracer()
        tracer.enable()
        random_trace_workload(tracer, rng, steps=60)
        spans = {span.span_id: span for span in tracer.drain()}
        for span in spans.values():
            if span.parent_id is not None:
                parent = spans[span.parent_id]
                assert parent.start <= span.start <= span.end <= parent.end


class TestHistogramProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_bucket_counts_always_sum_to_count(self, seed):
        rng = random.Random(seed)
        boundaries = sorted(
            {round(rng.uniform(-50.0, 50.0), 3) for _ in range(rng.randrange(1, 12))}
        )
        histogram = Histogram(boundaries)
        observations = rng.randrange(0, 300)
        for _ in range(observations):
            histogram.observe(rng.uniform(-100.0, 100.0))
        assert sum(histogram.bucket_counts) == histogram.count == observations

    @pytest.mark.parametrize("seed", range(10))
    def test_registry_documents_roundtrip_and_guard_bucket_sums(self, seed):
        """Any registry renders a ``--metrics-out`` document that survives
        JSON, validates, and loads back to the same histograms; moving one
        observation's tally breaks the bucket sum and the validator says so."""
        rng = random.Random(3000 + seed)
        boundaries = (0.25, 0.5, 0.75, 1.0)
        registry = MetricsRegistry()
        for _ in range(rng.randrange(1, 120)):
            registry.observe(f"v{rng.randrange(3)}", rng.random(), boundaries)
            registry.incr(f"n{rng.randrange(2)}")
            registry.gauge("level", rng.uniform(-5.0, 5.0))
        document = json.loads(json.dumps(render_metrics_document(registry)))
        assert validate_metrics_document(document) == []
        histograms = document["metrics"]["histograms"]
        for name, payload in histograms.items():
            assert Histogram.from_dict(payload).as_dict() == payload
            assert payload == registry.histogram(name).as_dict()
        name = rng.choice(sorted(histograms))
        histograms[name]["bucket_counts"][rng.randrange(len(boundaries) + 1)] += 1
        assert any(name in p for p in validate_metrics_document(document))
