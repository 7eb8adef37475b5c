"""Tests of the ``repro check`` static-analysis subsystem.

Each rule gets at least one violating fixture snippet (the rule fires)
and one clean snippet (the rule stays quiet), so a rule that silently
stops matching — an ``ast`` API change, a refactor of the rule pack —
fails here before it fails to protect the tree.  The meta-test at the
bottom runs the real analyzer over the repo's own ``src/`` and asserts
the gate is green: the repo must always pass its own linter.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.analysis import (
    CheckReport,
    FileContext,
    all_rules,
    parse_pragmas,
    render_json,
    render_text,
    run_check,
    validate_check_document,
)
from repro.analysis.framework import iter_python_files
from repro.analysis.reporters import SCHEMA_VERSION

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RULES = {rule.id: rule for rule in all_rules()}


def check_snippet(rule_id: str, source: str, path: str = "src/repro/core/fake.py"):
    """Run one rule over a dedented snippet parsed as ``path``."""
    ctx = FileContext.parse(path, textwrap.dedent(source))
    return list(_RULES[rule_id].check(ctx))


# ---------------------------------------------------------------------- #
# rule fixtures: one violating + one clean snippet per rule
# ---------------------------------------------------------------------- #
class TestDeterminismRules:
    def test_det001_flags_unseeded_random(self):
        findings = check_snippet(
            "DET-001",
            """
            import random
            rng = random.Random()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "DET-001"
        assert findings[0].line == 3

    def test_det001_flags_unseeded_bare_import(self):
        findings = check_snippet(
            "DET-001",
            """
            from random import Random
            rng = Random()
            """,
        )
        assert len(findings) == 1

    def test_det001_clean_when_seeded(self):
        assert not check_snippet(
            "DET-001",
            """
            import random
            rng = random.Random(11)
            other = random.Random(seed)
            """,
        )

    def test_det002_flags_module_level_random_call(self):
        findings = check_snippet(
            "DET-002",
            """
            import random
            value = random.random()
            random.shuffle(items)
            """,
        )
        assert {f.line for f in findings} == {3, 4}

    def test_det002_flags_stateful_from_import(self):
        findings = check_snippet(
            "DET-002",
            """
            from random import shuffle
            """,
        )
        assert len(findings) == 1
        assert "shuffle" in findings[0].message

    def test_det002_clean_for_instance_methods(self):
        assert not check_snippet(
            "DET-002",
            """
            import random
            from random import Random
            rng = random.Random(7)
            rng.shuffle(items)
            value = rng.random()
            """,
        )

    def test_det003_flags_wall_clock_in_scoring_path(self):
        findings = check_snippet(
            "DET-003",
            """
            import time
            import datetime

            def score(x):
                now = time.time()
                stamp = datetime.datetime.now()
                return now
            """,
            path="src/repro/core/scoring_fake.py",
        )
        assert {f.line for f in findings} == {6, 7}

    def test_det003_flags_from_import_datetime(self):
        findings = check_snippet(
            "DET-003",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            path="src/repro/eval/fake.py",
        )
        assert len(findings) == 1

    def test_det003_allows_monotonic_timing(self):
        assert not check_snippet(
            "DET-003",
            """
            import time

            def timed(fn):
                start = time.perf_counter()
                fn()
                return time.monotonic() - start
            """,
            path="src/repro/core/fake.py",
        )

    def test_det003_out_of_scope_module_is_clean(self):
        # serving-side code (stream, resilience, cli) may read clocks
        assert not check_snippet(
            "DET-003",
            """
            import time
            now = time.time()
            """,
            path="src/repro/stream/fake.py",
        )


class TestErrorTaxonomyRules:
    def test_err002_flags_bare_except(self):
        findings = check_snippet(
            "ERR-002",
            """
            try:
                work()
            except:
                pass
            """,
        )
        assert len(findings) == 1

    def test_err002_flags_base_exception(self):
        findings = check_snippet(
            "ERR-002",
            """
            try:
                work()
            except BaseException:
                pass
            """,
        )
        assert len(findings) == 1

    def test_err002_flags_base_exception_inside_tuple(self):
        findings = check_snippet(
            "ERR-002",
            """
            try:
                work()
            except (BaseException, KeyError):
                pass
            """,
        )
        assert len(findings) == 1

    def test_err002_flags_broad_except(self):
        findings = check_snippet(
            "ERR-002",
            """
            try:
                work()
            except Exception as exc:
                log(exc)
            """,
        )
        assert len(findings) == 1

    def test_err002_flags_exception_inside_tuple(self):
        findings = check_snippet(
            "ERR-002",
            """
            try:
                work()
            except (ValueError, Exception):
                pass
            """,
        )
        assert len(findings) == 1

    def test_err002_clean_for_taxonomy_types(self):
        assert not check_snippet(
            "ERR-002",
            """
            from repro.errors import ReproError

            try:
                work()
            except ReproError:
                pass
            """,
        )

    def test_err003_flags_generic_raise(self):
        findings = check_snippet(
            "ERR-003",
            """
            def f():
                raise RuntimeError("broken")
            """,
        )
        assert len(findings) == 1

    def test_err003_clean_for_taxonomy_and_contract_errors(self):
        assert not check_snippet(
            "ERR-003",
            """
            from repro.errors import IndexUnavailableError

            def f(x):
                if x < 0:
                    raise ValueError("x must be non-negative")
                raise IndexUnavailableError("index down")
            """,
        )

    def test_err003_ignores_re_raise(self):
        assert not check_snippet(
            "ERR-003",
            """
            try:
                work()
            except ValueError:
                raise
            """,
        )


class TestCacheRules:
    def test_cache001_flags_mutator_without_bump(self):
        findings = check_snippet(
            "CACHE-001",
            """
            from repro.cache.epochs import Epoch

            class Store:
                def __init__(self):
                    self.epoch = Epoch()
                    self._links = []

                def link_tweet(self, entity_id, user, timestamp):
                    self._links.append((entity_id, user, timestamp))
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "CACHE-001"
        assert "link_tweet" in findings[0].message

    def test_cache001_clean_when_mutator_bumps(self):
        assert not check_snippet(
            "CACHE-001",
            """
            from repro.cache.epochs import Epoch

            class Store:
                def __init__(self):
                    self.epoch = Epoch()
                    self._links = []

                def link_tweet(self, entity_id, user, timestamp):
                    self._links.append((entity_id, user, timestamp))
                    self.epoch.bump()
            """,
        )

    def test_cache001_accepts_delegation_to_another_mutator(self):
        """bulk_link -> link_tweet and add_entity -> add_surface_form are
        the repo's real shapes: the bump happens one call down."""
        assert not check_snippet(
            "CACHE-001",
            """
            from repro.cache.epochs import Epoch

            class Store:
                def __init__(self):
                    self.epoch = Epoch()

                def link_tweet(self, entity_id, user, timestamp):
                    self.epoch.bump()

                def bulk_link(self, links):
                    for entity_id, user, timestamp in links:
                        self.link_tweet(entity_id, user, timestamp)
            """,
        )

    def test_cache001_skips_modules_without_epoch(self):
        """A facade that wraps an epoch-owning structure is out of scope:
        its delegated calls bump the owner's epoch transitively."""
        assert not check_snippet(
            "CACHE-001",
            """
            class Facade:
                def __init__(self, ckb):
                    self._ckb = ckb
                    self._loaded = []

                def link_tweet(self, entity_id, user, timestamp):
                    return self._ckb.link_tweet(entity_id, user, timestamp)

                def bulk_link(self, links):
                    self._loaded.append(links)
            """,
        )

    def test_cache001_flags_each_non_bumping_mutator(self):
        findings = check_snippet(
            "CACHE-001",
            """
            from repro.cache.epochs import Epoch

            class Store:
                def __init__(self):
                    self.epoch = Epoch()
                    self._links = []

                def link_tweet(self, entity_id, user, timestamp):
                    self._links.append((entity_id, user, timestamp))

                def bulk_link(self, links):
                    self._links.extend(links)

                def count(self):
                    return len(self._links)
            """,
        )
        assert sorted("link_tweet" in f.message or "bulk_link" in f.message
                      for f in findings) == [True, True]


# ---------------------------------------------------------------------- #
# pragmas
# ---------------------------------------------------------------------- #
class TestPragmas:
    def test_parse_extracts_rules_and_justification(self):
        pragmas = parse_pragmas(
            ["x = 1", "y = f()  # repro: noqa[DET-001,ERR-002] -- boundary"]
        )
        assert list(pragmas) == [2]
        assert pragmas[2].rules == {"DET-001", "ERR-002"}
        assert pragmas[2].justification == "boundary"
        assert pragmas[2].covers("DET-001")
        assert not pragmas[2].covers("ERR-003")

    def test_wildcard_covers_everything(self):
        pragmas = parse_pragmas(["f()  # repro: noqa[*] -- generated code"])
        assert pragmas[1].covers("FLOW-004")

    def test_pragma_suppresses_matching_finding(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "rng = random.Random()  # repro: noqa[DET-001] -- fixture\n"
        )
        report = run_check([str(target)], root=str(tmp_path))
        assert report.findings == []
        assert len(report.suppressed_pragma) == 1
        assert report.suppressed_pragma[0].rule == "DET-001"

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "rng = random.Random()  # repro: noqa[ERR-002] -- wrong rule\n"
        )
        report = run_check([str(target)], root=str(tmp_path))
        # ... and, suppressing nothing, is itself reported as stale
        assert [f.rule for f in report.findings] == ["ANA-001", "DET-001"]
        assert "suppresses no finding" in report.findings[0].message

    def test_pragma_in_a_string_literal_is_not_a_pragma(self):
        assert parse_pragmas(
            ['"""Write', "    # repro: noqa[DET-001] -- why", '"""']
        ) == {}

    def test_stale_pragma_is_ana001(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("VALUE = 1  # repro: noqa[DET-003] -- x\n")
        report = run_check([str(target)], root=str(tmp_path))
        assert [(f.rule, f.line) for f in report.findings] == [("ANA-001", 1)]
        assert report.exit_code() == 1

    def test_pragma_without_justification_is_ana001(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "rng = random.Random()  # repro: noqa[DET-001]\n"
        )
        report = run_check([str(target)], root=str(tmp_path))
        # suppression still applies, but the missing "why" fails the gate
        assert [f.rule for f in report.findings] == ["ANA-001"]
        assert len(report.suppressed_pragma) == 1
        assert report.exit_code() == 1


# ---------------------------------------------------------------------- #
# framework / driver
# ---------------------------------------------------------------------- #
class TestFramework:
    def test_syntax_error_becomes_ana002(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        report = run_check([str(target)], root=str(tmp_path))
        assert [f.rule for f in report.findings] == ["ANA-002"]
        assert report.exit_code() == 1

    def test_findings_are_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nx = random.Random()\n")
        (tmp_path / "a.py").write_text("raise RuntimeError('unreachable')\n")
        first = run_check([str(tmp_path)], root=str(tmp_path))
        second = run_check([str(tmp_path)], root=str(tmp_path))
        assert first.findings == second.findings
        assert [f.path for f in first.findings] == ["a.py", "b.py"]

    def test_iter_python_files_deduplicates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        files = list(iter_python_files([str(target), str(tmp_path)]))
        assert files == [str(target)]

    def test_every_rule_has_id_and_summary(self):
        for rule in all_rules():
            assert rule.id and rule.summary

    def test_rule_ids_are_unique_and_sorted(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------- #
# reporters
# ---------------------------------------------------------------------- #
class TestReporters:
    @pytest.fixture
    def report(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import random\nrng = random.Random()\n"
        )
        return run_check([str(tmp_path)], root=str(tmp_path))

    def test_text_reporter_is_grep_able(self, report):
        text = render_text(report)
        assert "mod.py:2:6: DET-001 unseeded random.Random()" in text
        assert "FAIL: 1 finding(s)" in text

    def test_json_document_validates(self, report):
        document = render_json(report, paths=["src"])
        assert validate_check_document(document) == []
        assert document["summary"]["findings"] == 1
        assert document["summary"]["exit_code"] == 1
        assert document["meta"]["paths"] == ["src"]

    def test_validator_rejects_broken_documents(self):
        assert validate_check_document([]) == ["document must be an object, got []"]
        problems = validate_check_document({"meta": {"schema_version": 0}})
        assert any("schema_version" in p for p in problems)
        assert any("rules" in p for p in problems)

    def test_clean_report_exit_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        report = run_check([str(tmp_path)], root=str(tmp_path))
        document = render_json(report)
        assert document["summary"]["exit_code"] == 0
        assert "OK: 0 finding(s)" in render_text(report)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCheckCommand:
    def test_check_json_on_violating_tree(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        (tmp_path / "mod.py").write_text("import random\nx = random.Random()\n")
        monkeypatch.chdir(tmp_path)
        code = main(["check", "mod.py", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert validate_check_document(document) == []
        assert [f["rule"] for f in document["findings"]] == ["DET-001"]

    def test_document_is_schema_3_without_the_removed_keys(self, tmp_path):
        (tmp_path / "mod.py").write_text("import random\nx = random.Random()\n")
        document = render_json(run_check([str(tmp_path)], root=str(tmp_path)))
        assert document["meta"]["schema_version"] == SCHEMA_VERSION == 3
        assert set(document["meta"]) == {
            "schema_version", "tool", "paths", "files_scanned",
        }
        assert "stale_baseline" not in document
        assert set(document["suppressed"]) == {"pragma"}
        assert set(document["summary"]) == {
            "findings", "suppressed_pragma", "files_scanned", "exit_code",
        }
        assert set(document["rules"][0]) == {"id", "summary"}
        assert set(document["findings"][0]) == {
            "rule", "path", "line", "col", "message",
        }

    def test_v1_document_is_rejected(self, tmp_path):
        (tmp_path / "mod.py").write_text("VALUE = 1\n")
        document = render_json(run_check([str(tmp_path)], root=str(tmp_path)))
        assert validate_check_document(document) == []
        for version in (1, 2):  # only the current schema validates
            document["meta"]["schema_version"] = version
            problems = validate_check_document(document)
            assert any("schema_version" in p for p in problems)

    @pytest.mark.parametrize(
        "flag",
        [
            ["--cache", "c.json"],
            ["--no-cache"],
            ["--baseline", "b.json"],
            ["--write-baseline"],
            ["--prune-baseline"],
            ["--graph", "g.json"],
            ["--strict"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_removed_flags_are_usage_errors(self, flag, tmp_path, monkeypatch):
        from repro.cli import main

        (tmp_path / "mod.py").write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "mod.py", *flag])
        assert excinfo.value.code == 2
        assert os.listdir(tmp_path) == ["mod.py"]

    def test_missing_path_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["check", "no_such_dir"]) == 2
        assert "OK" not in capsys.readouterr().out

    def test_zero_file_scan_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        (tmp_path / "notes.txt").write_text("not python\n")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "."]) == 2
        assert "OK" not in capsys.readouterr().out

    def test_out_is_the_json_document_under_either_format(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        (tmp_path / "mod.py").write_text("import random\nx = random.Random()\n")
        monkeypatch.chdir(tmp_path)
        main(["check", "mod.py", "--format", "json", "--out", "a.json"])
        as_json = capsys.readouterr().out
        main(["check", "mod.py", "--format", "text", "--out", "b.json"])
        assert (tmp_path / "a.json").read_text() == as_json
        assert (tmp_path / "b.json").read_text() == as_json


# ---------------------------------------------------------------------- #
# the repo checks itself
# ---------------------------------------------------------------------- #
class TestRepoIsClean:
    def test_gate_green_on_src(self, monkeypatch):
        """`repro check` must exit 0 on the repo's own tree."""
        monkeypatch.chdir(REPO_ROOT)
        report = run_check(["src"])
        assert report.findings == [], render_text(report)
        assert report.exit_code() == 0
        assert report.files_scanned >= 80

    def test_eight_rules_and_no_stale_pragma(self, monkeypatch):
        assert [rule.id for rule in all_rules()] == [
            "ANA-001", "ANA-002", "CACHE-001", "DET-001", "DET-002",
            "DET-003", "ERR-002", "ERR-003",
        ]
        monkeypatch.chdir(REPO_ROOT)
        report = run_check(["src"])
        assert [f for f in report.findings if f.rule == "ANA-001"] == []
        assert report.suppressed_pragma  # the pragmas left are live ones

    def test_module_names_do_not_depend_on_the_cwd(self, monkeypatch, tmp_path):
        """DET-003's scope is a module prefix: an absolute ``src`` path run
        from elsewhere must name ``repro.*`` modules as the root run does."""
        monkeypatch.chdir(REPO_ROOT)
        from_root = run_check(["src"])
        monkeypatch.chdir(tmp_path)
        elsewhere = run_check([os.path.join(REPO_ROOT, "src")])

        def rows(findings):
            return [(f.rule, f.line, f.col, f.message) for f in findings]

        assert rows(elsewhere.findings) == rows(from_root.findings) == []
        assert rows(elsewhere.suppressed_pragma) == rows(from_root.suppressed_pragma)
        assert len(elsewhere.suppressed_pragma) == len(from_root.suppressed_pragma) == 4

    def test_every_repo_pragma_is_justified(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        for path in iter_python_files(["src"]):
            with open(path, "r", encoding="utf-8") as handle:
                pragmas = parse_pragmas(handle.read().splitlines())
            for pragma in pragmas.values():
                assert pragma.justification, (
                    f"{path}:{pragma.line} pragma has no justification"
                )

    def test_cli_check_json_on_src(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        code = main(["check", "src", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0, document["findings"]
        assert validate_check_document(document) == []
        assert document["summary"]["findings"] == 0


# ---------------------------------------------------------------------- #
# deterministic traversal (overlapping path specs)
# ---------------------------------------------------------------------- #
class TestTraversal:
    def test_overlapping_path_spellings_dedupe(self, tmp_path, monkeypatch):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "b.py").write_text("x = 1\n")
        (package / "a.py").write_text("y = 2\n")
        monkeypatch.chdir(tmp_path)
        # "src", "./src" and a direct file path all name the same files
        files = list(iter_python_files(["src", "./src", "src/pkg/a.py"]))
        assert files == ["src/pkg/a.py", "src/pkg/b.py"]

    def test_order_is_sorted_and_stable(self, tmp_path):
        for name in ("c.py", "a.py", "b.py"):
            (tmp_path / name).write_text("x = 1\n")
        first = list(iter_python_files([str(tmp_path)]))
        assert [os.path.basename(p) for p in first] == ["a.py", "b.py", "c.py"]
        assert first == list(iter_python_files([str(tmp_path)]))


# ---------------------------------------------------------------------- #
# pragma anchoring on multi-line statements
# ---------------------------------------------------------------------- #
class TestPragmaAnchoring:
    def test_first_line_pragma_covers_continuation_finding(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\n"
            "value = compute(  # repro: noqa[DET-003] -- boundary stamp\n"
            "    time.time(),\n"
            ")\n"
        )
        report = run_check([str(target)], root=str(tmp_path))
        assert report.findings == []
        assert [f.rule for f in report.suppressed_pragma] == ["DET-003"]

    def test_pragma_does_not_leak_past_its_statement(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\n"
            "value = compute(  # repro: noqa[DET-003] -- boundary stamp\n"
            "    time.time(),\n"
            ")\n"
            "other = time.time()\n"
        )
        report = run_check([str(target)], root=str(tmp_path))
        assert [f.rule for f in report.findings] == ["DET-003"]
        assert report.findings[0].line == 5


# ---------------------------------------------------------------------- #
# reporter edge cases
# ---------------------------------------------------------------------- #
class TestReporterEdgeCases:
    def test_empty_report_document_validates(self):
        report = CheckReport(
            findings=[],
            suppressed_pragma=[],
            files_scanned=0,
        )
        document = render_json(report)
        assert validate_check_document(document) == []
        assert document["summary"]["findings"] == 0

    def test_identical_findings_sort_stably(self, tmp_path):
        # two byte-identical violating lines produce same-rule findings
        # whose relative order is fully determined by (path, line, col)
        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "a = random.Random()\n"
            "b = random.Random()\n"
        )
        first = run_check([str(target)], root=str(tmp_path))
        second = run_check([str(target)], root=str(tmp_path))
        assert first.findings == second.findings
        assert [f.line for f in first.findings] == [2, 3]
