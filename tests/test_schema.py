"""``repro.schema``: the one shape checker, the number rules every
document shares, and every committed schema artefact."""

import json
import math
import os

import pytest

from repro.errors import RateLimitedError
from repro.obs.export import load_trace_jsonl, validate_trace_document
from repro.schema import (
    BOOL, COUNT, FRACTION, INT, REAL, STR, ListOf, MapOf, const, nullable,
    one_of, problems,
)
from repro.serve.handlers import error_body, validate_error_body
from repro.serve.load import OutcomeAccounting, PlannedRequest
from repro.serve.report import validate_load_document

from conftest import SCENARIOS

TESTS = os.path.dirname(__file__)
GOLDEN = os.path.join(TESTS, "golden")


class TestShapes:
    def test_problems_are_named_by_dotted_path(self):
        shape = {"scale": {"tiers": ListOf({"index_bytes": COUNT})}}
        doc = {"scale": {"tiers": [{"index_bytes": 1}, {"index_bytes": -1}, {}]}}
        assert problems(doc, shape) == [
            "scale.tiers[1].index_bytes must be a non-negative int, got -1",
            "scale.tiers[2].index_bytes missing",
        ]

    def test_extra_keys_are_allowed(self):
        assert problems({"a": 1, "appended": "x"}, {"a": INT}) == []

    def test_containers(self):
        assert problems({"a": 1, "b": "x"}, MapOf(INT)) == [
            "b must be an int, got 'x'"
        ]
        assert problems([], ListOf(INT, non_empty=True)) == [
            "document must be a non-empty list, got []"
        ]
        assert problems("x", {}) == ["document must be an object, got 'x'"]

    @pytest.mark.parametrize(
        "leaf, value",
        [
            (INT, True), (COUNT, False), (COUNT, -1), (REAL, True),
            (REAL, math.nan), (REAL, -math.inf), (REAL, 10**400),
            (FRACTION, 1.5), (STR, 1), (BOOL, 0), (const(1), True),
            (const(1), 1.0), (one_of("a"), "b"), (one_of("a"), ["a"]),
            (nullable(INT), "x"),
        ],
    )
    def test_leaf_rejects(self, leaf, value):
        assert problems(value, leaf) != []

    @pytest.mark.parametrize(
        "leaf, value",
        [
            (INT, -3), (COUNT, 0), (REAL, 2), (REAL, -0.5), (FRACTION, 1),
            (BOOL, False), (const(1), 1), (one_of("a", "b"), "b"),
            (nullable(INT), None),
        ],
    )
    def test_leaf_accepts(self, leaf, value):
        assert problems(value, leaf) == []


def _load_document():
    accounting = OutcomeAccounting()
    request = PlannedRequest(at=0.0, method="POST", path="/v1/link",
                             body=b"{}", tenant=None)
    accounting.record(request, "ok", 0.01)
    return accounting.document(
        mode="inprocess", seed=1, chaos_meta={}, duration_s=1.0
    )


def _rate_limited_body():
    return error_body(RateLimitedError("slow down", retry_after_s=0.5))[1]


class TestNumbers:
    @pytest.mark.parametrize(
        "validate, build, path, value",
        [
            (validate_load_document, _load_document, "unhandled", True),
            (validate_load_document, _load_document, "meta.seed", True),
            (validate_load_document, _load_document, "meta.requests", -5),
            (validate_load_document, _load_document, "latency_ms.p50", math.nan),
            (validate_error_body, _rate_limited_body, "error.retry_after_s", True),
        ],
        ids=[
            "load-unhandled", "load-meta.seed", "load-meta.requests",
            "load-latency_ms.p50", "error-retry_after_s",
        ],
    )
    def test_bool_nan_and_negative_are_not_numbers(
        self, validate, build, path, value
    ):
        document = build()
        assert validate(document) == []
        *parents, key = path.split(".")
        target = document
        for part in parents:
            target = target[part]
        target[key] = value
        (problem,) = validate(document)
        assert problem.startswith(f"{path} must be ")


def _read(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return load_trace_jsonl(text) if path.endswith(".jsonl") else json.loads(text)


ARTEFACTS = [
    *(
        (os.path.join(GOLDEN, f"{name}.trace.jsonl"), validate_trace_document)
        for name in SCENARIOS
    ),
    (os.path.join(GOLDEN, "LOAD_inprocess_golden.json"), validate_load_document),
]


class TestCommittedArtefacts:
    @pytest.mark.parametrize(
        "path, validate",
        ARTEFACTS,
        ids=[os.path.basename(path) for path, _ in ARTEFACTS],
    )
    def test_validates(self, path, validate):
        assert validate(_read(path)) == []
