"""perfbench may touch the program only through the surfaces ROADMAP keeps.

Items 1, 3 and 4 will delete or move ``repro.perf``, ``repro.obs``, the
bench module, the worker-pool stack, the dict 2-hop cover and the naive /
parallel closure builders; the benchmark must still run afterwards, so it
may not import them — or anything else outside the allow-list below.
"""

import ast
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent

#: module → names importable from it (``None``: anything public).
ALLOWED = {
    "repro.config": None,
    "repro.io": None,
    "repro.eval.context": None,
    "repro.kb.builder": None,
    "repro.kb.checkpoint": None,
    "repro.stream.generator": None,
    "repro.stream.ingest": None,
    "repro.core.linker": {"SocialTemporalLinker", "LinkResult"},
    "repro.core.batch": {"MicroBatchLinker", "LinkRequest"},
    "repro.graph.dispatch": {"build_reachability_index"},
    "repro.serve.handlers": {"ServeApp"},
    # a ServeApp cannot be made without a registry of tenants
    "repro.serve.tenants": {"TenantSpec", "build_tenant_registry"},
}
#: modules of which only the public functions may be imported
FUNCTIONS_ONLY = {
    "repro.core.candidates",
    "repro.core.influence",
    "repro.core.interest",
    "repro.core.recency",
    "repro.core.popularity",
    "repro.core.scoring",
}


def _repro_imports():
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path.name, alias.name, None
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    for alias in node.names:
                        yield path.name, node.module, alias.name


def test_only_kept_surfaces_are_imported():
    imports = list(_repro_imports())
    assert imports, "the scan found no repro imports at all"
    for filename, module, name in imports:
        where = f"{filename}: from {module} import {name}"
        assert name is not None, f"{filename}: plain 'import {module}' hides what is used"
        assert not name.startswith("_"), where
        if module in FUNCTIONS_ONLY:
            assert name[0].islower(), f"{where} (public functions only)"
            continue
        assert module in ALLOWED, where
        assert ALLOWED[module] is None or name in ALLOWED[module], where


def test_the_server_is_only_reached_through_its_cli():
    source = (PERFBENCH / "serving.py").read_text(encoding="utf-8")
    assert '"-m", "repro.cli"' in source and '"serve"' in source
