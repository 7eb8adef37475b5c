"""Whole-program layer: ProjectContext graphs, may-raise sets, FLOW rules."""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.analysis import run_check
from repro.analysis.project import ProjectContext

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_project(tmp_path, modules):
    """Write ``{"pkg/mod.py": source}`` under tmp/src and build a context."""
    for relative, source in modules.items():
        target = tmp_path / "src" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return ProjectContext.build([str(tmp_path / "src")], root=str(tmp_path))


def check_tree(tmp_path, modules):
    for relative, source in modules.items():
        target = tmp_path / "src" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_check([str(tmp_path / "src")], root=str(tmp_path))


def flow_findings(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ---------------------------------------------------------------------- #
# import graph
# ---------------------------------------------------------------------- #
class TestImportGraph:
    def test_edges(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "from pkg.b import helper\n",
                "pkg/b.py": "def helper():\n    return 1\n",
            },
        )
        assert "pkg.b" in project.import_edges()["pkg.a"]

    def test_cycle_detection(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "import pkg.b\n",
                "pkg/b.py": "import pkg.a\n",
            },
        )
        cycles = project.import_cycles()
        assert ["pkg.a", "pkg.b"] in cycles

    def test_acyclic_tree_has_no_cycles(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "import pkg.b\n",
                "pkg/b.py": "x = 1\n",
            },
        )
        assert project.import_cycles() == []


# ---------------------------------------------------------------------- #
# call resolution
# ---------------------------------------------------------------------- #
class TestCallResolution:
    def test_imported_function_resolves(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": (
                    "from pkg.b import helper\n"
                    "def caller():\n"
                    "    return helper()\n"
                ),
                "pkg/b.py": "def helper():\n    return 1\n",
            },
        )
        targets = [t for _, t in project.calls_of("pkg.a.caller")]
        assert "pkg.b.helper" in targets

    def test_self_method_resolves(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "class Thing:\n"
                    "    def outer(self):\n"
                    "        return self.inner()\n"
                    "    def inner(self):\n"
                    "        return 1\n"
                ),
            },
        )
        targets = [t for _, t in project.calls_of("pkg.a.Thing.outer")]
        assert "pkg.a.Thing.inner" in targets

    def test_attribute_typed_in_init_resolves(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "from pkg.b import Engine\n"
                    "class App:\n"
                    "    def __init__(self):\n"
                    "        self.engine = Engine()\n"
                    "    def run(self):\n"
                    "        return self.engine.spin()\n"
                ),
                "pkg/b.py": (
                    "class Engine:\n"
                    "    def spin(self):\n"
                    "        return 1\n"
                ),
            },
        )
        targets = [t for _, t in project.calls_of("pkg.a.App.run")]
        assert "pkg.b.Engine.spin" in targets

    def test_return_annotation_types_local(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "from pkg.b import Engine, get_engine\n"
                    "def run():\n"
                    "    engine = get_engine()\n"
                    "    return engine.spin()\n"
                ),
                "pkg/b.py": (
                    "class Engine:\n"
                    "    def spin(self):\n"
                    "        return 1\n"
                    "def get_engine() -> Engine:\n"
                    "    return Engine()\n"
                ),
            },
        )
        targets = [t for _, t in project.calls_of("pkg.a.run")]
        assert "pkg.b.Engine.spin" in targets

    def test_self_referential_local_does_not_recurse(self, tmp_path):
        # `x = x.narrow()` must not send the resolver into a loop
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "def run(x):\n"
                    "    x = x.narrow()\n"
                    "    y = z.f()\n"
                    "    z = y.g()\n"
                    "    return x\n"
                ),
            },
        )
        assert [t for _, t in project.calls_of("pkg.a.run")] == [None, None, None]

    def test_reexport_cycle_does_not_recurse(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": "from pkg.b import f\ndef run():\n    f()\n",
                "pkg/b.py": "from pkg.a import f\n",
            },
        )
        assert [t for _, t in project.calls_of("pkg.a.run")] == [None]


# ---------------------------------------------------------------------- #
# effect summaries
# ---------------------------------------------------------------------- #
class TestMayRaise:
    def test_propagates_through_calls(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "from pkg.b import helper\n"
                    "def caller():\n"
                    "    return helper()\n"
                ),
                "pkg/b.py": (
                    "def helper():\n"
                    "    raise ValueError('boom')\n"
                ),
            },
        )
        assert "ValueError" in project.may_raise("pkg.a.caller")

    def test_guard_subtracts_caught_types(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "from pkg.b import helper\n"
                    "def caller():\n"
                    "    try:\n"
                    "        return helper()\n"
                    "    except ValueError:\n"
                    "        return None\n"
                ),
                "pkg/b.py": (
                    "def helper():\n"
                    "    raise ValueError('boom')\n"
                ),
            },
        )
        assert "ValueError" not in project.may_raise("pkg.a.caller")

    def test_bare_reraise_handler_is_transparent(self, tmp_path):
        # `except ValueError: cleanup(); raise` does NOT swallow the error
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "from pkg.b import helper\n"
                    "def caller():\n"
                    "    try:\n"
                    "        return helper()\n"
                    "    except ValueError:\n"
                    "        cleanup()\n"
                    "        raise\n"
                    "def cleanup():\n"
                    "    pass\n"
                ),
                "pkg/b.py": (
                    "def helper():\n"
                    "    raise ValueError('boom')\n"
                ),
            },
        )
        assert "ValueError" in project.may_raise("pkg.a.caller")

    def test_subclass_matches_parent_guard(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/a.py": (
                    "from pkg.b import helper\n"
                    "def caller():\n"
                    "    try:\n"
                    "        return helper()\n"
                    "    except LookupError:\n"
                    "        return None\n"
                ),
                "pkg/b.py": (
                    "def helper():\n"
                    "    raise KeyError('boom')\n"
                ),
            },
        )
        assert "KeyError" not in project.may_raise("pkg.a.caller")


# ---------------------------------------------------------------------- #
# FLOW rules end-to-end (run_check over synthetic trees)
# ---------------------------------------------------------------------- #
class TestFlow002:
    def test_untyped_raise_escaping_boundary_is_flagged(self, tmp_path):
        report = check_tree(
            tmp_path,
            {
                "repro/errors.py": (
                    "class ReproError(Exception):\n"
                    "    pass\n"
                ),
                "repro/core/engine.py": (
                    "def run():\n"
                    "    raise ValueError('bad')\n"
                ),
                "repro/serve/__init__.py": "",
                "repro/serve/handlers.py": (
                    "from repro.core.engine import run\n"
                    "from repro.errors import ReproError\n"
                    "def handle(request):\n"
                    "    try:\n"
                    "        return run()\n"
                    "    except ReproError:\n"
                    "        return None\n"
                ),
            },
        )
        findings = flow_findings(report, "FLOW-002")
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/core/engine.py")
        assert "handle" in findings[0].message

    def test_typed_raise_is_clean(self, tmp_path):
        report = check_tree(
            tmp_path,
            {
                "repro/errors.py": (
                    "class ReproError(Exception):\n"
                    "    pass\n"
                    "class DegradedError(ReproError):\n"
                    "    pass\n"
                ),
                "repro/core/engine.py": (
                    "from repro.errors import DegradedError\n"
                    "def run():\n"
                    "    raise DegradedError('degraded')\n"
                ),
                "repro/serve/__init__.py": "",
                "repro/serve/handlers.py": (
                    "from repro.core.engine import run\n"
                    "from repro.errors import ReproError\n"
                    "def handle(request):\n"
                    "    try:\n"
                    "        return run()\n"
                    "    except ReproError:\n"
                    "        return None\n"
                ),
            },
        )
        assert flow_findings(report, "FLOW-002") == []

    def test_guard_at_boundary_clears_finding(self, tmp_path):
        report = check_tree(
            tmp_path,
            {
                "repro/core/engine.py": (
                    "def run():\n"
                    "    raise ValueError('bad')\n"
                ),
                "repro/serve/__init__.py": "",
                "repro/serve/handlers.py": (
                    "from repro.core.engine import run\n"
                    "def handle(request):\n"
                    "    try:\n"
                    "        return run()\n"
                    "    except ValueError:\n"
                    "        return None\n"
                ),
            },
        )
        assert flow_findings(report, "FLOW-002") == []


    def test_optional_constructor_argument_is_followed(self, tmp_path):
        # the ServeApp shape: the boundary reaches the raise through an
        # Optional[...]-annotated constructor argument, then through a
        # local bound from a method with a return annotation
        report = check_tree(
            tmp_path,
            {
                "repro/serve/__init__.py": "",
                "repro/serve/admission.py": (
                    "class Controller:\n"
                    "    def release(self):\n"
                    "        raise ValueError('release without admit')\n"
                    "class Classed:\n"
                    "    def controller(self, name) -> Controller:\n"
                    "        return Controller()\n"
                    "    def release(self, name):\n"
                    "        controller = self.controller(name)\n"
                    "        controller.release()\n"
                ),
                "repro/serve/handlers.py": (
                    "from typing import Optional\n"
                    "from repro.serve.admission import Classed\n"
                    "class App:\n"
                    "    def __init__(self, admission: Optional[Classed] = None):\n"
                    "        self.admission = admission or Classed()\n"
                    "    def handle(self, request):\n"
                    "        self.admission.release('default')\n"
                ),
            },
        )
        findings = flow_findings(report, "FLOW-002")
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/serve/admission.py", 3)
        ]
        assert "App.handle" in findings[0].message


class TestFlow004:
    def test_dead_import_is_flagged(self, tmp_path):
        report = check_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "from pkg.b import helper\nx = 1\n",
                "pkg/b.py": "def helper():\n    return 1\n",
            },
        )
        findings = flow_findings(report, "FLOW-004")
        assert any("helper" in f.message for f in findings)

    def test_dunder_all_reexport_is_not_dead(self, tmp_path):
        report = check_tree(
            tmp_path,
            {
                "pkg/__init__.py": (
                    "from pkg.b import helper\n"
                    "__all__ = ['helper']\n"
                ),
                "pkg/b.py": "def helper():\n    return 1\n",
            },
        )
        assert flow_findings(report, "FLOW-004") == []

    def test_string_annotation_counts_as_use(self, tmp_path):
        # regression: `"OrderedDict[int, Dict[int, float]]"` uses Dict
        report = check_tree(
            tmp_path,
            {
                "pkg/a.py": (
                    "from typing import Dict\n"
                    "class C:\n"
                    "    def __init__(self):\n"
                    '        self.cache: "Dict[int, float]" = {}\n'
                ),
            },
        )
        assert flow_findings(report, "FLOW-004") == []

    def test_import_cycle_is_flagged(self, tmp_path):
        report = check_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "import pkg.b\nuse = pkg.b\n",
                "pkg/b.py": "import pkg.a\nuse = pkg.a\n",
            },
        )
        findings = flow_findings(report, "FLOW-004")
        assert any("cycle" in f.message for f in findings)



# ---------------------------------------------------------------------- #
# what FLOW-002 must keep reading on src/
# ---------------------------------------------------------------------- #
class TestServeBoundaryReach:
    """One function of ``ServeApp.handle``'s reach per resolution shape
    FLOW-002 needs on the repo's own tree: a resolver that loses a shape
    loses its witness, and the raises behind it, without any pragma going
    stale."""

    @pytest.fixture(scope="class")
    def reach(self):
        project = ProjectContext.build(
            [os.path.join(REPO_ROOT, "src")], root=REPO_ROOT
        )
        return set(project.reach("repro.serve.handlers.ServeApp.handle"))

    @pytest.mark.parametrize(
        "witness",
        [
            # return-annotated local: `tenant = self.registry.get(...)`
            "repro.serve.tenants.TokenBucket.try_acquire",
            # attribute set by `admission or AdmissionController()`
            "repro.serve.admission.AdmissionController.release",
            # hot-add: `self.registry.add(spec)` builds the tenant it hosts
            "repro.serve.tenants.TokenBucket.__init__",
            # parameter annotation + attribute chain: `tenant.linker.link(...)`
            "repro.core.linker.SocialTemporalLinker.link",
            # module-level instance behind an import: `METRICS.incr(...)`
            "repro.obs.metrics.MetricsRegistry.incr",
            # imported function followed into its module: `stage(...)`,
            # whose `TRACE.span(...)` is another module's instance
            "repro.obs.trace.Tracer.span",
        ],
    )
    def test_handle_reaches(self, reach, witness):
        assert witness in reach
