"""``repro bench``: schema validation and a smoke run of the full pipeline."""

import copy
import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    compare_bench_documents,
    run_bench,
    validate_bench_document,
)
from repro.obs.metrics import METRICS


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_linking.json"
    document = run_bench(seed=5, smoke=True, out=str(out))
    return document, out


class TestSmokeRun:
    def test_document_validates(self, smoke_document):
        document, _ = smoke_document
        assert validate_bench_document(document) == []

    def test_written_file_round_trips(self, smoke_document):
        _, out = smoke_document
        with open(out, encoding="utf-8") as handle:
            assert validate_bench_document(json.load(handle)) == []

    def test_one_pass_outputs_identical(self, smoke_document):
        document, _ = smoke_document
        assert document["reachability"]["outputs_identical"] is True

    def test_batch_section_reports_throughput(self, smoke_document):
        document, _ = smoke_document
        batch = document["batch"]
        assert batch["requests"] > 0
        assert batch["seconds"] > 0
        assert batch["throughput_rps"] > 0

    def test_meta_records_inputs(self, smoke_document):
        document, _ = smoke_document
        assert document["meta"]["schema_version"] == SCHEMA_VERSION
        assert document["meta"]["smoke"] is True
        assert document["meta"]["seed"] == 5

    def test_perf_section_populated(self, smoke_document):
        """The instrumented hot paths actually reported into the snapshot."""
        document, _ = smoke_document
        perf = document["perf"]
        assert perf["counters"].get("graph.one_pass_bfs", 0) > 0
        assert "score_cache.interest" in perf["cache_hit_rates"]
        stages = document["single_mention"]["stages"]
        assert set(stages) == {
            "link.candidates", "link.interest", "link.recency",
            "link.popularity", "link.combine",
        }
        for name, stats in stages.items():
            assert set(stats) == {
                "count", "total_s", "mean_s", "p50_s", "p95_s", "p99_s",
            }
            assert stats["count"] == document["single_mention"]["mentions"]
            assert name in perf["timers"]

    def test_timing_is_switched_off_afterwards(self, smoke_document):
        assert not METRICS.timing

    def test_cached_section_outputs_identical(self, smoke_document):
        """The warm-cache run replays the same mentions through cached and
        uncached linkers; any ranked/degradation divergence is recorded."""
        document, _ = smoke_document
        cached = document["single_mention_cached"]
        assert cached["outputs_identical"] is True
        assert cached["mentions"] > 0
        assert cached["speedup_vs_uncached"] > 0
        assert set(cached["hit_rates"]) == {"candidates", "popularity", "interest"}
        for rate in cached["hit_rates"].values():
            assert 0.0 <= rate <= 1.0


class TestValidator:
    @pytest.fixture
    def valid(self, smoke_document):
        document, _ = smoke_document
        return copy.deepcopy(document)

    def test_non_object(self):
        assert validate_bench_document([]) == ["document is not a JSON object"]

    def test_missing_section(self, valid):
        del valid["reachability"]
        assert "missing or non-object section 'reachability'" in validate_bench_document(
            valid
        )

    def test_missing_key(self, valid):
        del valid["single_mention"]["p99_ms"]
        assert "single_mention.p99_ms missing" in validate_bench_document(valid)

    def test_wrong_schema_version(self, valid):
        valid["meta"]["schema_version"] = SCHEMA_VERSION + 1
        problems = validate_bench_document(valid)
        assert any("schema_version" in p for p in problems)

    def test_malformed_batch_row(self, valid):
        del valid["batch"]["throughput_rps"]
        assert "batch.throughput_rps missing" in validate_bench_document(valid)

    def test_missing_cached_section(self, valid):
        del valid["single_mention_cached"]
        assert (
            "missing or non-object section 'single_mention_cached'"
            in validate_bench_document(valid)
        )


class TestCompare:
    """The CI perf-regression gate: errors fail the job, warnings do not."""

    @pytest.fixture
    def docs(self, smoke_document):
        document, _ = smoke_document
        return copy.deepcopy(document), copy.deepcopy(document)

    def test_identical_documents_pass(self, docs):
        current, baseline = docs
        errors, _ = compare_bench_documents(current, baseline)
        assert errors == []

    def test_p50_regression_is_an_error(self, docs):
        current, baseline = docs
        current["single_mention"]["p50_ms"] = (
            baseline["single_mention"]["p50_ms"] * 2.0 + 1.0
        )
        errors, _ = compare_bench_documents(current, baseline, tolerance=0.25)
        assert any("single_mention.p50_ms regressed" in e for e in errors)

    def test_regression_within_tolerance_passes(self, docs):
        current, baseline = docs
        current["single_mention"]["p50_ms"] = (
            baseline["single_mention"]["p50_ms"] * 1.10
        )
        errors, _ = compare_bench_documents(current, baseline, tolerance=0.25)
        assert errors == []

    def test_cached_p50_is_gated_too(self, docs):
        current, baseline = docs
        current["single_mention_cached"]["p50_ms"] = (
            baseline["single_mention_cached"]["p50_ms"] * 3.0 + 1.0
        )
        errors, _ = compare_bench_documents(current, baseline)
        assert any("single_mention_cached.p50_ms" in e for e in errors)

    def test_workload_mismatch_is_an_error(self, docs):
        current, baseline = docs
        baseline["meta"]["seed"] = current["meta"]["seed"] + 1
        errors, _ = compare_bench_documents(current, baseline)
        assert any("workload mismatch" in e for e in errors)

    def test_output_divergence_is_an_error(self, docs):
        current, baseline = docs
        current["single_mention_cached"]["outputs_identical"] = False
        errors, _ = compare_bench_documents(current, baseline)
        assert any("outputs_identical" in e for e in errors)

    def test_build_time_regression_only_warns(self, docs):
        current, baseline = docs
        current["build"]["transitive_closure_s"] = (
            baseline["build"]["transitive_closure_s"] * 10.0 + 1.0
        )
        errors, warnings = compare_bench_documents(current, baseline)
        assert errors == []
        assert any("transitive_closure_s" in w for w in warnings)

    def test_low_speedup_only_warns(self, docs):
        current, baseline = docs
        current["single_mention_cached"]["speedup_vs_uncached"] = 1.1
        errors, warnings = compare_bench_documents(current, baseline)
        assert errors == []
        assert any("speedup" in w for w in warnings)

    def test_batch_throughput_drop_only_warns(self, docs):
        current, baseline = docs
        current["batch"]["throughput_rps"] = baseline["batch"]["throughput_rps"] / 2
        errors, warnings = compare_bench_documents(current, baseline, tolerance=0.25)
        assert errors == []
        assert any("batch throughput dropped" in w for w in warnings)

    def test_invalid_baseline_is_an_error(self, docs):
        current, _ = docs
        errors, _ = compare_bench_documents(current, {"meta": {}})
        assert any("baseline document is invalid" in e for e in errors)

    def test_rejects_non_positive_tolerance(self, docs):
        current, baseline = docs
        with pytest.raises(ValueError):
            compare_bench_documents(current, baseline, tolerance=0.0)
