"""Golden-trace regression suite (tests/golden/*.trace.jsonl).

Each committed fixture pins the complete decision record of one
scenario: span structure, tick timestamps, score attributes, degradation
events.  The exporter writes sorted keys under the tick clock, so the
live export must equal the fixture byte for byte; any drift — a
reordered stage, a changed score, a lost event — fails here with a
unified diff, one span a line.  Regenerate deliberately by running this
file as a script (``PYTHONPATH=src python tests/test_golden_traces.py``)
and review the diff like any other behavior change.
"""

import difflib
import os

import pytest

from repro.obs.export import dump_trace_jsonl, load_trace_jsonl

from conftest import SCENARIOS, run_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.trace.jsonl")


def golden_text(name: str) -> str:
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


def load_golden(name: str):
    return load_trace_jsonl(golden_text(name))


@pytest.mark.parametrize("name", SCENARIOS)
class TestGoldenTraces:
    """Each fixture's schema is checked with every committed artefact
    (tests/test_schema.py)."""

    def test_live_trace_matches_golden_field_by_field(self, name):
        golden, live = golden_text(name), dump_trace_jsonl(run_scenario(name)[0])
        diff = difflib.unified_diff(
            golden.splitlines(), live.splitlines(), "golden", "live", lineterm=""
        )
        assert live == golden, "\n".join(diff)


class TestGoldenContent:
    """Pin the load-bearing semantics, independent of the full fixtures."""

    def test_normal_links_basketball_jordan(self):
        document = load_golden("normal")
        root = document["spans"][0]
        assert root["name"] == "link.request"
        assert root["attributes"]["entity"] == 0  # MJ the basketball player
        assert root["attributes"]["abstained"] is False
        assert root["attributes"]["degradation"] is None

    def test_abstention_trace_carries_the_signal(self):
        root = load_golden("abstention")["spans"][0]
        assert root["attributes"]["abstained"] is True
        assert root["attributes"]["degradation"] is None
        assert root["attributes"]["score"] <= 0.4  # β + γ default bound

    def test_degraded_trace_has_breaker_and_degradation_events(self):
        document = load_golden("degraded")
        roots = [s for s in document["spans"] if s["parent_id"] is None]
        assert [r["attributes"]["degradation"] for r in roots] == [
            "index_unavailable",
            "circuit_open",
        ]
        event_names = {
            event["name"] for span in document["spans"] for event in span["events"]
        }
        assert "breaker.open" in event_names
        assert "link.degraded" in event_names

    def test_stage_children_present_in_normal_trace(self):
        document = load_golden("normal")
        names = {span["name"] for span in document["spans"]}
        assert {
            "link.request",
            "link.candidates",
            "link.interest",
            "link.recency",
            "link.popularity",
            "link.combine",
        } <= names


if __name__ == "__main__":
    for name in SCENARIOS:
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            handle.write(dump_trace_jsonl(run_scenario(name)[0]))
        print(f"wrote {golden_path(name)}")
