"""Span bookkeeping, self time and the percentile helpers."""

import json

import pytest

from perfbench.trace import (
    Tracer,
    beyond,
    median_and_spread,
    percentile,
    self_times_ns,
)


def test_spans_nest_under_the_open_span_and_carry_the_request_id():
    tracer = Tracer("w")
    tracer.request_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.request_id = 8
    with tracer.span("next"):
        pass
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    requests = [span[4] for span in tracer.spans]
    assert names == ["outer", "inner", "next"]
    assert parents == [None, 0, None]
    assert requests == [7, 7, 8]
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0, 100, None, 0],
        ["a", 10, 40, 0, 0],
        ["b", 30, 60, 0, 0],      # overlaps a: union is 10..60
        ["c", 90, 120, 0, 0],     # clipped to the parent's end: 90..100
        ["leaf", 15, 20, 1, 0],
    ]
    assert self_times_ns(spans) == [100 - 50 - 10, 30 - 5, 30, 30, 5]


def test_self_time_ignores_a_child_inside_an_earlier_sibling():
    spans = [["root", 0, 100, None, 0], ["a", 10, 80, 0, 0], ["b", 20, 30, 0, 0]]
    assert self_times_ns(spans)[0] == 30


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([5.0], 0.95) == 5.0
    assert percentile([3, 1, 2], 0.5) == 2
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_beyond_counts_samples_past_the_percentile():
    assert beyond(100, 0.95) == 5
    assert beyond(874, 0.95) == 874 - 831
    assert beyond(1, 0.95) == 0


def test_median_and_spread():
    assert median_and_spread([4.0]) == (4.0, 0.0)
    middle, spread = median_and_spread([10.0, 10.0, 10.0, 10.0])
    assert (middle, spread) == (10.0, 0.0)
    middle, spread = median_and_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert middle == 3.0 and spread == pytest.approx((4.5 - 1.5) / 3.0)


def test_jsonl_has_one_object_per_span(tmp_path):
    tracer = Tracer("link_hot")
    root = tracer.add("client.request", 5, 50)
    tracer.add("client.wait", 10, 40, root)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1] == {
        "id": 1, "name": "client.wait", "start_ns": 10, "end_ns": 40,
        "parent_id": 0, "request_id": 0, "workload": "link_hot",
    }
