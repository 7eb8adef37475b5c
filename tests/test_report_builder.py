"""Consolidated report builder tests."""

import pathlib
import re

import pytest

from repro.eval.report_builder import (
    SECTIONS,
    build_report,
    collect_results,
    write_report,
)


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "fig4a_accuracy.txt").write_text("Fig 4(a) table\nrow\n")
    (directory / "table4_features.txt").write_text("Table 4 table\n")
    (directory / "custom_extra.txt").write_text("extra table\n")
    return directory


class TestCollect:
    def test_reads_all_tables(self, results_dir):
        results = collect_results(results_dir)
        assert set(results) == {"fig4a_accuracy", "table4_features", "custom_extra"}
        assert results["fig4a_accuracy"].startswith("Fig 4(a)")

    def test_missing_directory_is_empty(self, tmp_path):
        assert collect_results(tmp_path / "nope") == {}


class TestBuildReport:
    def test_sections_in_paper_order(self, results_dir):
        report = build_report(results_dir, generated_at="2026-07-04T00:00:00")
        fig4a = report.index("Fig. 4(a)")
        table4 = report.index("Table 4 — feature ablation")
        assert fig4a < table4
        assert "2026-07-04" in report

    def test_unknown_stems_appended(self, results_dir):
        report = build_report(results_dir, generated_at="x")
        assert "## custom_extra" in report
        assert "extra table" in report

    def test_missing_experiments_listed(self, results_dir):
        report = build_report(results_dir, generated_at="x")
        assert "Missing experiments" in report
        assert "`fig5a_latency`" in report

    def test_complete_run_has_no_missing_section(self, tmp_path):
        directory = tmp_path / "full"
        directory.mkdir()
        for stem, _ in SECTIONS:
            (directory / f"{stem}.txt").write_text(f"{stem} data\n")
        report = build_report(directory, generated_at="x")
        assert "Missing experiments" not in report


class TestWriteReport:
    def test_writes_file(self, results_dir, tmp_path):
        out = tmp_path / "REPORT.md"
        path = write_report(results_dir, out, generated_at="x")
        assert path == pathlib.Path(out)
        assert out.read_text().startswith("# Reproduction report")


class TestCliReport:
    def test_cli_builds_report(self, results_dir, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "R.md"
        code = main(["report", "--results", str(results_dir), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "report written" in capsys.readouterr().out

    def test_cli_fails_without_results(self, tmp_path, caplog):
        from repro.cli import main

        code = main(["report", "--results", str(tmp_path / "none")])
        assert code == 1
        assert "no result tables" in caplog.text


class TestCommittedReport:
    def test_report_is_the_rebuild_of_the_results(self):
        """``REPORT.md`` is ``repro report`` over ``benchmarks/results/``
        at its own stamp: a re-run table without a regenerated report
        fails here."""
        root = pathlib.Path(__file__).resolve().parent.parent
        committed = (root / "REPORT.md").read_text()
        stamp = re.search(r"^_Generated (\S+)_$", committed, re.MULTILINE).group(1)
        assert committed == build_report(
            root / "benchmarks" / "results", generated_at=stamp
        )
