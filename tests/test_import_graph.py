"""No import cycle among ``src/repro`` modules at import time, and no
shipped module reads the test oracles.

An edge is an import that runs when its module loads: anything outside a
function body or an ``if TYPE_CHECKING:`` block.  Deferred imports are
how this tree breaks a cycle, so they are not edges; the layering rule
counts them too.  Dead imports are ruff's F401 (CI's ``lint`` job).
"""

import ast
import graphlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _module_of(path, src):
    parts = list(path.relative_to(src).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _load_time_imports(body):
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _load_time_imports(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _load_time_imports(getattr(node, field, []))


def _all_imports(tree):
    return (n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)))


def import_edges(src=SRC, deferred=False):
    """``{module: {project modules it imports}}``: at load time, or
    anywhere in the module with ``deferred``."""
    files = {_module_of(path, src): path for path in sorted(src.rglob("*.py"))}
    edges = {}
    for module, path in files.items():
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        edges[module] = set()
        tree = ast.parse(path.read_text())
        nodes = _all_imports(tree) if deferred else _load_time_imports(tree.body)
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:  # `from ..x import y` drops level - 1 parts of the package
                parts = package.split(".")
                anchor = parts[: len(parts) + 1 - node.level] if node.level else []
                source = ".".join(anchor + [node.module] if node.module else anchor)
                names = [f"{source}.{alias.name}" for alias in node.names]
            for name in names:
                while name and name not in files:  # pkg.mod.Symbol -> pkg.mod
                    name = name.rpartition(".")[0]
                if name and name != module:
                    edges[module].add(name)
    return edges


def find_cycle(edges):
    """One import cycle as a closed module list, or ``None``."""
    try:
        graphlib.TopologicalSorter(edges).prepare()
    except graphlib.CycleError as error:
        return error.args[1]
    return None


def test_src_has_no_import_cycle():
    edges = import_edges()
    assert len(edges) > 80 and "repro.config" in edges["repro.core.linker"]
    assert find_cycle(edges) is None, " -> ".join(find_cycle(edges))


def oracle_importers(edges):
    """Modules outside ``repro.testing`` that import its oracles."""
    return sorted(
        module
        for module, imported in edges.items()
        if "repro.testing.oracles" in imported
        and not module.startswith("repro.testing")
    )


def test_only_the_testing_package_imports_the_oracles():
    """The oracles are what tests compare shipped code against; a shipped
    module that imports one, even inside a function, ships a test
    fixture."""
    edges = import_edges(deferred=True)
    assert "repro.testing.oracles" in edges
    assert oracle_importers(edges) == []


def test_a_planted_oracle_import_is_found(tmp_path):
    package = tmp_path / "repro"
    (package / "testing").mkdir(parents=True)
    for name in ("__init__", "testing/__init__", "testing/oracles"):
        (package / f"{name}.py").write_text("")
    (package / "testing" / "faults.py").write_text("from . import oracles\n")
    (package / "linker.py").write_text(
        '"""Compare with :mod:`repro.testing.oracles`."""\n'  # not an import
        "def late():\n    from repro.testing.oracles import Oracle\n"
    )
    (package / "eager.py").write_text("from .testing import oracles\n")
    assert oracle_importers(import_edges(tmp_path)) == ["repro.eager"]
    assert oracle_importers(import_edges(tmp_path, deferred=True)) == [
        "repro.eager", "repro.linker",
    ]


def test_a_planted_cycle_is_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("from . import b\n")
    (package / "b.py").write_text(
        "def late():\n    import pkg.a\n"  # deferred: not an edge
        "from pkg.c import VALUE\n"
    )
    (package / "c.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from pkg import b\n"  # not an edge either
        "import pkg.a\nVALUE = 1\n"
    )
    edges = import_edges(tmp_path)
    assert edges == {
        "pkg": set(), "pkg.a": {"pkg.b"}, "pkg.b": {"pkg.c"}, "pkg.c": {"pkg.a"},
    }
    cycle = find_cycle(edges)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["pkg.a", "pkg.b", "pkg.c"]
