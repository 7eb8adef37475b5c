"""Trace documents: JSON-lines export and schema validation.

The trace document is schema-stable (:mod:`repro.schema`); beyond its
shape, :func:`validate_trace_document` checks the span-tree invariants.

The on-disk form is JSON lines — one ``meta`` record, then one ``span``
record per finished span in span-id order, each line serialized with
sorted keys — so a deterministic workload exports byte-identical files
run over run, and the golden-trace gate compares the text itself: a
unified diff of two exports localizes drift to a span.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.obs.trace import Span
from repro.schema import COUNT, INT, REAL, STR, ListOf, const, nullable, problems

__all__ = [
    "SCHEMA_VERSION",
    "dump_trace_jsonl",
    "load_trace_jsonl",
    "render_trace_document",
    "validate_trace_document",
]

SCHEMA_VERSION = 1

_SPAN = {
    "trace_id": INT,
    "span_id": INT,
    "parent_id": nullable(INT),
    "name": STR,
    "start": REAL,
    "end": REAL,
    "attributes": {},
    "events": ListOf({"name": STR, "time": REAL, "attributes": {}}),
}
_TRACE_DOCUMENT = {
    "meta": {
        "schema_version": const(SCHEMA_VERSION),
        "tool": STR,
        "scenario": nullable(STR),
        "clock": STR,
        "span_count": COUNT,
    },
    "spans": ListOf(_SPAN),
}


def render_trace_document(
    spans: Iterable[Span],
    tool: str,
    scenario: Optional[str] = None,
    clock: str = "tick",
) -> Dict[str, object]:
    """Assemble the canonical document from finished spans.

    Spans are ordered by ``span_id`` (creation order) regardless of the
    completion order the tracer saw, so the document layout is a pure
    function of the decision structure.
    """
    ordered = sorted(spans, key=lambda span: span.span_id)
    return {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "tool": tool,
            "scenario": scenario,
            "clock": clock,
            "span_count": len(ordered),
        },
        "spans": [span.as_dict() for span in ordered],
    }


def dump_trace_jsonl(document: Dict[str, object]) -> str:
    """One ``meta`` line, then one ``span`` line per span (sorted keys)."""
    lines = [json.dumps({"type": "meta", **document["meta"]}, sort_keys=True)]
    for span in document["spans"]:  # type: ignore[union-attr]
        lines.append(json.dumps({"type": "span", **span}, sort_keys=True))
    return "\n".join(lines) + "\n"


def load_trace_jsonl(text: str) -> Dict[str, object]:
    """Parse one JSON-lines trace back into the canonical document."""
    meta: Optional[Dict[str, object]] = None
    spans: List[Dict[str, object]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"line {number} is not a JSON object")
        kind = record.pop("type", None)
        if kind == "meta":
            if meta is not None:
                raise ValueError(f"line {number}: second meta record")
            meta = record
        elif kind == "span":
            spans.append(record)
        else:
            raise ValueError(f"line {number}: unknown record type {kind!r}")
    if meta is None:
        raise ValueError("trace has no meta record")
    return {"meta": meta, "spans": spans}


# ---------------------------------------------------------------------- #
# validation
# ---------------------------------------------------------------------- #
def validate_trace_document(doc: object) -> List[str]:
    """Schema check, then (on a document of the right shape) the tree
    invariants; returns problems (empty when valid)."""
    return problems(doc, _TRACE_DOCUMENT) or _check_tree(doc)


def _check_tree(doc: Dict) -> List[str]:
    """What the tracer guarantees by construction: the span count, unique
    span ids, one root per trace, parents in the same trace, child
    intervals nested in their parent's, event times inside their span."""
    spans, count = doc["spans"], doc["meta"]["span_count"]
    found = [] if count == len(spans) else [
        f"meta.span_count is {count!r} but the document has {len(spans)} span(s)"
    ]
    by_id: Dict[int, Dict] = {}
    for index, span in enumerate(spans):
        span_id, start, end = span["span_id"], span["start"], span["end"]
        if span_id in by_id:
            found.append(f"spans[{index}] duplicates span_id {span_id}")
            continue
        by_id[span_id] = span
        if end < start:
            found.append(f"spans[{index}] ends before it starts")
        found.extend(
            f"spans[{index}].events[{position}] time {event['time']} outside "
            "the span interval"
            for position, event in enumerate(span["events"])
            if not start <= event["time"] <= end
        )
    for span_id, span in by_id.items():
        parent_id = span["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            found.append(f"span {span_id} has orphan parent_id {parent_id}")
            continue
        if parent["trace_id"] != span["trace_id"]:
            found.append(f"span {span_id} and its parent {parent_id} "
                         "belong to different traces")
        if not (parent["start"] <= span["start"] and span["end"] <= parent["end"]):
            found.append(f"span {span_id} interval is not nested inside "
                         f"parent {parent_id}")
    roots = Counter(s["trace_id"] for s in by_id.values() if s["parent_id"] is None)
    for trace_id in sorted({span["trace_id"] for span in by_id.values()}):
        if roots[trace_id] != 1:
            found.append(f"trace {trace_id} has {roots[trace_id]} root span(s), "
                         "expected exactly 1")
    return found
