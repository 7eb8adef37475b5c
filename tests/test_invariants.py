"""The source invariants of ``src/repro``, checked over every module's AST.

DET: replay and evaluation are exact, so no RNG is unseeded or global and
no scoring module reads the wall clock (Eq. 9–11 take the query time as an
argument).  ERR: the serve boundary renders each ``repro.errors`` type as
its own status, so code raises typed errors and catches no more than it
handles.  CACHE: a score memo is valid while its epochs match, so each
mutator of an ``Epoch`` owner bumps it or delegates to a mutator that does.
IMP: a module imports only what it reads, once (ruff's F401 and F811, held
in tier-1 over ``src/repro`` and ``tests/``, the tree CI's lint reads, and
over ``benchmarks/`` and ``examples/``, which it does not).

Each rule maps one parsed module to ``(lineno, rule, message)`` hits.  Call
names resolve through the module's own imports, so ``import time as t;
t.time()`` is ``time.time``.  A hit fails unless ``ALLOWED`` names its
``(path, enclosing function, rule)``; an entry matching no hit fails too,
and so does a module that does not parse.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The wall-clock ban's scope: whatever feeds a score, a rank, an eval
#: table, a golden trace or a load report.  Serving time comes from
#: injected clocks; ``time.monotonic`` / ``perf_counter`` stay legal.
SCORING_MODULES = (
    "repro.core", "repro.graph", "repro.kb", "repro.baselines",
    "repro.search", "repro.eval", "repro.text", "repro.obs", "repro.cache",
    "repro.serve",
)
EPOCH_MUTATOR_METHODS = frozenset({
    "add_entity", "add_surface_form", "add_hyperlink", "link_tweet",
    "bulk_link",
})
#: Functions of the ``random`` module that use its shared global state.
RANDOM_FUNCTIONS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})
#: RNG constructors that seed themselves from the OS when given no seed.
SEEDABLE = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
GENERIC_EXCEPTIONS = BROAD_EXCEPTIONS | {"RuntimeError", "SystemError"}

#: ``(path under src/repro, enclosing function, rule)`` -> why it is sound.
ALLOWED: Dict[Tuple[str, str, str], str] = {
    ("serve/handlers.py", "_link", "ERR-002"):
        "slot bookkeeping only: the slot is returned and the exception "
        "re-raised untouched, whatever its type",
    ("serve/server.py", "_dispatch", "ERR-002"):
        "outermost HTTP boundary: a non-taxonomy bug must become a typed "
        "500 body, never a dropped connection",
    ("serve/load.py", "run_inprocess", "ERR-002"):
        "the harness mirrors the HTTP server: a non-taxonomy bug is counted "
        "as 'internal', and the load gate asserts the count stays 0",
    ("eval/report_builder.py", "build_report", "DET-003"):
        "CLI report stamp; tests and reproducible runs inject generated_at",
}

Hit = Tuple[int, str, str]


class Module(NamedTuple):
    name: str  # dotted, e.g. "repro.core.linker"
    tree: ast.Module
    imports: Dict[str, str]  # local name -> dotted origin
    lines: List[str]


def parse(source: str, name: str) -> Module:
    tree = ast.parse(source)
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return Module(name, tree, imports, source.splitlines())


def origin(node: ast.AST, module: Module) -> Optional[str]:
    """The dotted origin of a Name/Attribute chain; a head no import binds
    (a builtin, a local) stands for itself."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(module.imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def calls(module: Module) -> Iterator[Tuple[ast.Call, str]]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = origin(node.func, module)
            if name is not None:
                yield node, name


def uses_global_rng(name: str) -> bool:
    package, _, function = name.rpartition(".")
    if package == "random":
        return function in RANDOM_FUNCTIONS
    # numpy's module functions draw from its global RandomState; its
    # classes and default_rng build a generator of their own
    return package == "numpy.random" and function[:1].islower() and (
        function != "default_rng"
    )


def det_001(module: Module) -> Iterator[Hit]:
    for node, name in calls(module):
        if name in SEEDABLE and not node.args and not node.keywords:
            yield node.lineno, "DET-001", f"unseeded {name}()"


def det_002(module: Module) -> Iterator[Hit]:
    for node, name in calls(module):
        if uses_global_rng(name):
            yield node.lineno, "DET-002", f"{name}() uses the global RNG"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if uses_global_rng(f"{node.module}.{alias.name}"):
                    yield node.lineno, "DET-002", f"imports global {alias.name}"


def det_003(module: Module) -> Iterator[Hit]:
    if any(
        module.name == prefix or module.name.startswith(prefix + ".")
        for prefix in SCORING_MODULES
    ):
        for node, name in calls(module):
            if name in WALL_CLOCK:
                yield node.lineno, "DET-003", f"{name}() reads the wall clock"


def err_002(module: Module) -> Iterator[Hit]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and (
            node.type is None
            or BROAD_EXCEPTIONS.intersection(
                origin(caught, module)
                for caught in getattr(node.type, "elts", [node.type])
            )
        ):
            yield node.lineno, "ERR-002", "broad handler; catch taxonomy types"


def err_003(module: Module) -> Iterator[Hit]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = origin(raised, module)
            if name in GENERIC_EXCEPTIONS:
                yield node.lineno, "ERR-003", f"raise {name} is untyped"


def cache_001(module: Module) -> Iterator[Hit]:
    if not any(
        isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Call)
        and (origin(node.value.func, module) or "").split(".")[-1] == "Epoch"
        for node in ast.walk(module.tree)
    ):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in EPOCH_MUTATOR_METHODS
            and not any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in EPOCH_MUTATOR_METHODS | {"bump"}
                for call in ast.walk(node)
            )
        ):
            yield node.lineno, "CACHE-001", f"{node.name}() never bumps the epoch"


def bindings(module: Module) -> Iterator[Tuple[ast.AST, ast.alias, str]]:
    """``(statement, alias, bound name)`` of every import outside a
    ``# noqa`` line; ``import a.b`` binds ``a``."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                lines = {node.lineno, alias.lineno}
                if alias.name != "*" and not any(
                    "# noqa" in module.lines[line - 1] for line in lines
                ):
                    yield node, alias, alias.asname or alias.name.split(".")[0]


def read_names(module: Module) -> set:
    """Every name the module loads, with the names of its string
    annotations and its ``__all__``."""
    names = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for text in ast.walk(annotation) if annotation is not None else ():
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                try:  # read as code, as pyflakes does; a Literal's text may not parse
                    quoted = ast.parse(text.value)
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def imp_001(module: Module) -> Iterator[Hit]:
    read = read_names(module)
    for node, _, name in bindings(module):
        if name not in read:
            yield node.lineno, "IMP-001", f"{name} imported but never read"


def imp_002(module: Module) -> Iterator[Hit]:
    # a name's scope is the innermost function or class around its import
    scope_of = {}
    for parent in ast.walk(module.tree):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for child in ast.walk(parent):
                scope_of[child] = parent  # inner scopes are walked later
    seen = {}
    for node, alias, name in sorted(bindings(module), key=lambda hit: hit[0].lineno):
        key = scope_of.get(node), name
        dotted = isinstance(node, ast.Import) and "." in alias.name and not alias.asname
        if key in seen and not dotted:
            yield node.lineno, "IMP-002", f"{name} imported again (line {seen[key]})"
        seen.setdefault(key, node.lineno)


RULES = {
    "DET-001": det_001, "DET-002": det_002, "DET-003": det_003,
    "ERR-002": err_002, "ERR-003": err_003, "CACHE-001": cache_001,
    "IMP-001": imp_001, "IMP-002": imp_002,
}
IMPORT_RULES = ("IMP-001", "IMP-002")


def enclosing_function(tree: ast.Module, lineno: int) -> str:
    innermost, name = 0, "<module>"
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and innermost < node.lineno <= lineno <= node.end_lineno
        ):
            innermost, name = node.lineno, node.name
    return name


def scan(root: Path, rules=tuple(RULES)):
    """``(path, function, rule, lineno, message)`` of every hit of ``rules``
    under root."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        dotted = ".".join(["repro", *relative[: -len(".py")].split("/")])
        source = path.read_text(encoding="utf-8")
        module = parse(source, dotted.removesuffix(".__init__"))
        for rule in rules:
            for lineno, rule_id, message in RULES[rule](module):
                function = enclosing_function(module.tree, lineno)
                hits.append((relative, function, rule_id, lineno, message))
    return hits


def audit(hits, allowed):
    """(hits no entry allows, entries that allow no hit)."""
    unallowed = [hit for hit in hits if hit[:3] not in allowed]
    return unallowed, sorted(set(allowed) - {hit[:3] for hit in hits})


def test_src_keeps_every_invariant_outside_the_allow_list():
    unallowed, stale = audit(scan(SRC), ALLOWED)
    assert unallowed == [], "\n".join(
        f"{path}:{lineno} ({function}) {rule} {message}"
        for path, function, rule, lineno, message in unallowed
    )
    assert stale == [], f"allow-list entries that match no hit: {stale}"


def assert_imports_read(directory: str) -> None:
    hits = scan(SRC.parents[1] / directory, IMPORT_RULES)
    assert hits == [], "\n".join(
        f"{directory}/{path}:{lineno} {rule} {message}"
        for path, _, rule, lineno, message in hits
    )


def test_tests_import_only_what_they_read():
    assert_imports_read("tests")


@pytest.mark.parametrize("directory", ["benchmarks", "examples"])
def test_scripts_import_only_what_they_read(directory):
    """The benchmark tables and the examples, which CI's ruff job does not
    lint, keep the same two import rules."""
    assert_imports_read(directory)


def test_an_entry_matching_nothing_and_an_unlisted_hit_both_fail():
    hits = [("kb/x.py", "f", "ERR-002", 3, "broad handler")]
    allowed = {("kb/x.py", "g", "ERR-002"): "why"}
    assert audit(hits, allowed) == (hits, [("kb/x.py", "g", "ERR-002")])


def _case(rule, source, lines, case_id, module="repro.core.fake"):
    return pytest.param(rule, source, lines, module, id=f"{rule}-{case_id}")


_STORE = """
    from repro.cache.epochs import Epoch
    class Store:
        def __init__(self):
            self.epoch = Epoch()
        def link_tweet(self, entity, user, timestamp):
            self.links.append((entity, user, timestamp))
"""

CASES = [
    _case("DET-001", "import random\nrng = random.Random()", [2], "random.Random"),
    _case("DET-001", "from random import Random\nrng = Random()", [2], "from-import"),
    _case("DET-001", "import random as rnd\nrng = rnd.Random()", [2], "aliased-module"),
    _case("DET-001", "import numpy as np\nrng = np.random.default_rng()", [2],
          "numpy-default_rng"),
    _case("DET-001", "import random\nimport numpy as np\na = random.Random(11)\n"
          "b = np.random.default_rng(seed=7)", [], "seeded"),
    _case("DET-002", "import random\nx = random.random()\nrandom.shuffle(xs)",
          [2, 3], "module-call"),
    _case("DET-002", "from random import shuffle", [1], "stateful-from-import"),
    _case("DET-002", "import random as rnd\nx = rnd.random()", [2], "aliased-module"),
    _case("DET-002", "import numpy as np\nx = np.random.rand(3)", [2], "numpy-global"),
    _case("DET-002", "import random\nfrom random import Random\n"
          "rng = random.Random(7)\nrng.shuffle(xs)\nx = rng.random()", [],
          "instance-methods"),
    _case("DET-003", "import time\nimport datetime\nnow = time.time()\n"
          "stamp = datetime.datetime.now()", [3, 4], "module-calls"),
    _case("DET-003", "from datetime import datetime\nstamp = datetime.now()", [2],
          "from-import-class"),
    _case("DET-003", "import time as _t\nnow = _t.time()", [2], "aliased-module"),
    _case("DET-003", "from time import time\nnow = time()", [2],
          "from-import-function"),
    _case("DET-003", "from datetime import date\nday = date.today()", [2],
          "date.today"),
    _case("DET-003", "import time\nstart = time.perf_counter()\n"
          "lag = time.monotonic() - start", [], "durations"),
    _case("DET-003", "import time\nnow = time.time()", [], "out-of-scope",
          module="repro.stream.fake"),
    _case("ERR-002", "try:\n    work()\nexcept:\n    pass", [3], "bare"),
    _case("ERR-002", "try:\n    work()\nexcept BaseException:\n    pass", [3],
          "BaseException"),
    _case("ERR-002", "try:\n    work()\nexcept (ValueError, Exception) as e:\n"
          "    log(e)", [3], "Exception-in-tuple"),
    _case("ERR-002", "from repro.errors import ReproError\ntry:\n    work()\n"
          "except (ReproError, KeyError):\n    pass", [], "taxonomy"),
    _case("ERR-003", "def f():\n    raise RuntimeError('broken')", [2], "RuntimeError"),
    _case("ERR-003", "raise Exception", [1], "bare-class"),
    _case("ERR-003", "from repro.errors import IndexUnavailableError\n"
          "def f(x):\n    if x < 0:\n        raise ValueError(x)\n"
          "    raise IndexUnavailableError('down')\n"
          "try:\n    f(1)\nexcept ValueError:\n    raise", [], "typed-and-re-raise"),
    _case("CACHE-001", _STORE + """
        def bulk_link(self, links):
            self.links.extend(links)
        def count(self):
            return len(self.links)
""", [5, 8], "mutator-without-bump"),
    _case("CACHE-001", _STORE + """
            self.epoch.bump()
        def bulk_link(self, links):
            for link in links:
                self.link_tweet(*link)
""", [], "bump-or-delegate"),
    _case("CACHE-001", _STORE.replace("Epoch()", "ckb.epoch"), [], "no-epoch-owner"),
    _case("IMP-001", "import os\nimport json\nfrom typing import Dict, List\n"
          "x: List[int] = json.loads('[]')", [1, 3], "unread"),
    _case("IMP-001", "import os.path\nfrom a import (\n    b,  # noqa: F401\n    c,\n)\n"
          "from d import e as f\n__all__ = ['c']\nx: 'f' = os.sep", [], "read-exported-noqa"),
    _case("IMP-001", "import json  # noqa\nfrom __future__ import annotations",
          [], "noqa-and-future"),
    _case("IMP-001", "from typing import Literal\nfrom a import b\n"
          "def f(x: 'Literal[\"not code\"]') -> 'b': pass", [], "string-annotations"),
    _case("IMP-002", "import re\nfrom os import path\nimport re\nfrom posixpath import path",
          [3, 4], "rebound"),
    _case("IMP-002", "import os\nimport os.path\ndef f():\n    import os\n    return os\n"
          "class C:\n    from os import sep", [], "submodule-and-scopes"),
]


@pytest.mark.parametrize("rule, source, lines, module", CASES)
def test_rule(rule, source, lines, module):
    parsed = parse(textwrap.dedent(source).strip("\n"), module)
    assert [lineno for lineno, _, _ in RULES[rule](parsed)] == lines
