"""Trace documents: JSONL roundtrip and schema validation."""

import pytest

from repro.obs.export import (
    dump_trace_jsonl,
    load_trace_jsonl,
    render_trace_document,
    validate_trace_document,
)
from repro.obs.trace import Tracer

from conftest import SCENARIOS, run_scenario


def sample_document():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("link.request", surface="jordan") as root:
        root.add_event("link.degraded", reason="circuit_open")
        with tracer.span("link.candidates"):
            pass
    return render_trace_document(tracer.drain(), "sample_document", scenario="unit")


class TestRoundtrip:
    def test_dump_load_identity(self):
        document = sample_document()
        assert load_trace_jsonl(dump_trace_jsonl(document)) == document

    def test_spans_ordered_by_span_id(self):
        document = sample_document()
        ids = [span["span_id"] for span in document["spans"]]
        assert ids == sorted(ids)

    def test_meta_fields(self):
        meta = sample_document()["meta"]
        assert meta["scenario"] == "unit"
        assert meta["clock"] == "tick"
        assert meta["span_count"] == 2

    def test_load_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_trace_jsonl('{"type": "span"}\n')  # no meta record
        with pytest.raises(ValueError):
            load_trace_jsonl('{"type": "mystery"}\n')
        with pytest.raises(ValueError):
            load_trace_jsonl("[1, 2]\n")


class TestByteIdentical:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenario_rerun_is_byte_identical(self, name):
        first = dump_trace_jsonl(run_scenario(name)[0])
        second = dump_trace_jsonl(run_scenario(name)[0])
        assert first == second

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenario_metrics_rerun_identical(self, name):
        assert run_scenario(name)[1] == run_scenario(name)[1]


class TestValidation:
    def test_valid_document_passes(self):
        assert validate_trace_document(sample_document()) == []

    def test_every_scenario_validates(self):
        for name in SCENARIOS:
            assert validate_trace_document(run_scenario(name)[0]) == []

    def test_non_object_rejected(self):
        assert validate_trace_document("nope") != []

    def test_missing_meta_key(self):
        document = sample_document()
        del document["meta"]["clock"]
        assert any("meta.clock" in p for p in validate_trace_document(document))

    def test_span_count_mismatch(self):
        document = sample_document()
        document["meta"]["span_count"] = 99
        assert any("span_count" in p for p in validate_trace_document(document))

    def test_duplicate_span_id(self):
        document = sample_document()
        document["spans"][1]["span_id"] = document["spans"][0]["span_id"]
        document["spans"][1]["parent_id"] = None
        assert any("duplicates" in p for p in validate_trace_document(document))

    def test_orphan_parent(self):
        document = sample_document()
        document["spans"][1]["parent_id"] = 777
        assert any("orphan" in p for p in validate_trace_document(document))

    def test_two_roots_in_one_trace(self):
        document = sample_document()
        document["spans"][1]["parent_id"] = None
        assert any("root" in p for p in validate_trace_document(document))

    def test_child_interval_must_nest(self):
        document = sample_document()
        document["spans"][1]["end"] = document["spans"][0]["end"] + 50.0
        assert any("nested" in p for p in validate_trace_document(document))

    def test_event_time_outside_span(self):
        document = sample_document()
        document["spans"][0]["events"][0]["time"] = -1.0
        assert any("outside" in p for p in validate_trace_document(document))

    def test_end_before_start(self):
        document = sample_document()
        document["spans"][1]["start"] = document["spans"][1]["end"] + 1.0
        problems = validate_trace_document(document)
        assert any("ends before" in p for p in problems)

    @pytest.mark.parametrize(
        "span, key, value, path",
        [
            (1, "start", "0.5", "spans[1].start"),
            (0, "events", [{"name": "e", "time": "1", "attributes": {}}],
             "spans[0].events[0].time"),
            (1, "span_id", [1], "spans[1].span_id"),
            (1, "trace_id", [0], "spans[1].trace_id"),
        ],
        ids=["string-start", "string-event-time", "list-span-id", "list-trace-id"],
    )
    def test_wrong_typed_field_is_reported_not_raised(self, span, key, value, path):
        """A document off disk (``load_trace_jsonl``) gets its problems
        back; the tree invariants run only on a document of the right
        shape, so none of these reach a comparison or a dict key."""
        document = sample_document()
        document["spans"][span][key] = value
        (problem,) = validate_trace_document(document)
        assert problem.startswith(f"{path} must be ")
