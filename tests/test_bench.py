"""``repro bench``: the scale tool — schema v6, one ``--tiers 1000`` run,
and the exit-1 gate on a tier that diverged or blew its budget."""

import copy
import json
import os
from types import SimpleNamespace

import pytest

from repro import bench
from repro.bench import (
    SCHEMA_VERSION,
    run_bench,
    scale_gate_errors,
    validate_bench_document,
)
from repro.cli import build_parser, main
from repro.obs.metrics import METRICS

COMMITTED = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_linking.json")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One ``--tiers 1000``-shaped run, with ``METRICS`` read either side."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_linking.json"
    METRICS.incr("test_bench.sentinel")  # a reset would lose it
    before = (METRICS.snapshot(), METRICS.timing)
    document = run_bench(seed=5, tiers=[1000], out=str(out))
    after = (METRICS.snapshot(), METRICS.timing)
    return SimpleNamespace(document=document, out=out, before=before, after=after)


@pytest.fixture(scope="module")
def smoke_document(smoke_run):
    return smoke_run.document


class TestSmokeRun:
    def test_document_validates(self, smoke_document):
        assert validate_bench_document(smoke_document) == []
        assert list(smoke_document) == [
            "meta", "environment", "reachability", "scale",
        ]

    def test_written_file_round_trips(self, smoke_run):
        with open(smoke_run.out, encoding="utf-8") as handle:
            assert json.load(handle) == smoke_run.document

    def test_one_pass_outputs_identical(self, smoke_document):
        reachability = smoke_document["reachability"]
        assert reachability["outputs_identical"] is True
        assert reachability["sources"] == 80

    def test_meta_records_inputs(self, smoke_document):
        assert smoke_document["meta"] == {
            "schema_version": SCHEMA_VERSION,
            "tool": "repro bench",
            "seed": 5,
            "tiers_measured": [1000],
        }

    def test_tier_row_passes_both_gates(self, smoke_document):
        (row,) = smoke_document["scale"]["tiers"]
        assert row["users"] == 1000
        assert row["backend"] == "closure"
        assert row["outputs_identical"] is True
        assert row["within_budget"] is True
        assert scale_gate_errors(smoke_document) == []

    def test_timing_is_switched_off_afterwards(self, smoke_run):
        """``run_bench`` neither resets the registry nor switches timing:
        all that moves is the counter the measured one-pass walks keep
        themselves."""
        (before, timing_before), (after, timing_after) = (
            smoke_run.before, smoke_run.after,
        )
        assert timing_after is timing_before is False
        counters = before["counters"]
        assert after == {
            **before,
            "counters": {
                **counters,
                "graph.one_pass_bfs": counters.get("graph.one_pass_bfs", 0) + 80,
            },
        }

    def test_rejects_empty_or_non_positive_tiers(self):
        for tiers in ([], [0], [1000, -1]):
            with pytest.raises(ValueError):
                run_bench(tiers=tiers, out=None)


class TestValidator:
    @pytest.fixture
    def valid(self, smoke_document):
        return copy.deepcopy(smoke_document)

    def test_non_object(self):
        assert validate_bench_document([]) == ["document must be an object, got []"]

    def test_missing_section(self, valid):
        del valid["reachability"]
        assert "reachability missing" in validate_bench_document(valid)

    def test_missing_key(self, valid):
        del valid["reachability"]["speedup"]
        assert "reachability.speedup missing" in validate_bench_document(valid)

    def test_wrong_schema_version(self, valid):
        """Only v6: the v5 number is refused, no alias."""
        for version in (SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
            valid["meta"]["schema_version"] = version
            problems = validate_bench_document(valid)
            assert any("schema_version" in p for p in problems)

    def test_committed_document_is_v6_with_three_tiers(self):
        """Its schema is checked with every committed artefact
        (tests/test_schema.py); here, what it measured."""
        with open(COMMITTED, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["meta"]["schema_version"] == SCHEMA_VERSION == 6
        assert [row["users"] for row in document["scale"]["tiers"]] == [
            1_000, 50_000, 500_000,
        ]
        assert scale_gate_errors(document) == []

    @pytest.mark.parametrize("key", list(bench._SCALE_TIER))
    def test_each_dropped_tier_key_is_rejected(self, valid, key):
        del valid["scale"]["tiers"][0][key]
        assert f"scale.tiers[0].{key} missing" in validate_bench_document(valid)

    def test_empty_tier_list_is_rejected(self, valid):
        valid["scale"]["tiers"] = []
        assert validate_bench_document(valid) == [
            "scale.tiers must be a non-empty list, got []"
        ]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("index_bytes", None),
            ("index_bytes", 4.0e6),
            ("index_bytes", True),
            ("outputs_identical", "yes"),
            ("outputs_identical", 1),
            ("within_budget", None),
            ("within_budget", 1),
        ],
    )
    def test_gated_fields_are_type_checked(self, valid, key, value):
        valid["scale"]["tiers"][0][key] = value
        problems = validate_bench_document(valid)
        assert [p for p in problems if f"scale.tiers[0].{key} must be" in p]

    def test_ungated_identity_is_null_not_missing(self, valid):
        valid["scale"]["tiers"][0]["outputs_identical"] = None
        assert validate_bench_document(valid) == []
        assert scale_gate_errors(valid) == []


class TestExitGate:
    """``repro bench`` exits 1 when a tier diverged or blew its budget."""

    @pytest.fixture
    def forced_row(self, smoke_document, monkeypatch):
        """Serve the measured 1k row back with overrides instead of
        re-measuring it."""
        row = copy.deepcopy(smoke_document["scale"]["tiers"][0])
        monkeypatch.setattr(bench, "_scale_tier_bench", lambda users, seed: row)
        return row

    def run(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scale.json"
        code = main(["bench", "--tiers", "1000", "--seed", "5", "--out", str(out)])
        with open(out, encoding="utf-8") as handle:
            assert validate_bench_document(json.load(handle)) == []
        return code, capsys.readouterr().out

    def test_clean_row_exits_zero(self, forced_row, tmp_path, capsys):
        code, stdout = self.run(tmp_path, capsys)
        assert code == 0
        assert "ERROR:" not in stdout

    @pytest.mark.parametrize(
        "key, fragment",
        [
            ("outputs_identical", "diverged from the dict-backed cover"),
            ("within_budget", "exceeded the 1073741824-byte budget"),
        ],
    )
    def test_failed_gate_exits_one(self, forced_row, tmp_path, capsys, key, fragment):
        forced_row[key] = False
        code, stdout = self.run(tmp_path, capsys)
        assert code == 1
        (error_line,) = [line for line in stdout.splitlines() if "ERROR:" in line]
        assert error_line.startswith("ERROR: scale tier 1000: ")
        assert fragment in error_line

    @pytest.mark.parametrize(
        "argv",
        [
            ["--smoke"],
            ["--compare", "baseline.json"],
            ["--tolerance", "0.25"],
            ["--metrics-out", "m.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_deleted_flags_exit_two(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench", *argv])
        assert exit_info.value.code == 2
