"""The ``repro check`` rule pack: this repo's invariants, machine-checked.

Each rule encodes a convention PR 1 and PR 2 established but, until now,
only enforced by review:

* **DET** — determinism.  Bit-identical batch/sequential linking and
  reproducible evaluation both die the moment an unseeded RNG or a wall
  clock leaks into a scoring path (the paper's recency model, Eq. 9, is
  a function of the *query* time, which must arrive as an argument).
* **ERR** — the typed error taxonomy.  The transient/permanent retry
  split in :mod:`repro.errors` only works if code raises taxonomy types
  and handlers catch exactly what they can handle.
* **NUM** — numeric discipline.  Ranking ties decided by ``==`` on
  floats are platform lottery; ties must use exact-zero guards,
  tolerances, or total-order keys.
* **CACHE** — incremental consistency.  The PR-5 score caches trust
  epoch counters for invalidation; a mutator that forgets to bump its
  owning epoch serves stale candidates/popularity/interest silently,
  breaking the cached≡uncached bit-identity contract.
* **API** — interface hygiene: mutable defaults, shadowed builtins,
  ``__all__`` in public packages.

Rules are deliberately *narrow*: each matches the concrete patterns this
codebase uses, not every theoretical variant — a static gate earns its
keep by being quiet on correct code.  Suppression (an inline pragma)
always needs a written justification; see :mod:`repro.analysis.pragmas`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.framework import FileContext, Finding, Rule, Severity, register

__all__ = [
    "EPOCH_MUTATOR_METHODS",
    "RANDOM_MODULE_FUNCTIONS",
    "SCORING_MODULES",
    "SHADOWED_BUILTINS",
    "WALL_CLOCK_CALLS",
]

#: Scoring/linking scope of the wall-clock ban: everything whose output
#: feeds a score, a rank, or an evaluation table.  Serving-side modules
#: (stream, resilience, cli, bench, log) may read clocks — that is
#: their job.  ``repro.obs`` is in scope because golden traces must be
#: byte-identical run over run: tracer time comes from injected clocks
#: only (the deterministic TickClock by default), never the wall; its
#: stage timers read ``time.perf_counter`` — a duration, not a date, and
#: only while the timing switch is on.
SCORING_MODULES = (
    "repro.core",
    "repro.graph",
    "repro.kb",
    "repro.baselines",
    "repro.search",
    "repro.eval",
    "repro.text",
    "repro.obs",
    "repro.cache",
    # The serving front end is in scope because the load harness promises
    # byte-identical reports: serve-side time comes from injected clocks
    # (time.monotonic is passed as a default, never read ad hoc) and all
    # randomness from seeded random.Random instances.
    "repro.serve",
)

#: Float-equality scope (NUM-001): where ranking and metrics live.
NUMERIC_MODULES = ("repro.core", "repro.eval", "repro.baselines")

#: Builtins whose shadowing has bitten real code; deliberately not the
#: full builtins list (``file=``-style idioms stay legal).
SHADOWED_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "bytes", "callable", "compile", "dict",
        "dir", "eval", "exec", "filter", "float", "format", "frozenset",
        "hash", "id", "input", "int", "iter", "len", "list", "map", "max",
        "min", "next", "object", "open", "pow", "print", "property",
        "range", "repr", "round", "set", "slice", "sorted", "str", "sum",
        "super", "tuple", "type", "vars", "zip",
    }
)

#: Methods that mutate an epoch-versioned structure (CACHE-001).  Any
#: class in a module that constructs an :class:`repro.cache.epochs.Epoch`
#: must bump it (directly or by delegating to another mutator here) in
#: every one of these methods it defines.
EPOCH_MUTATOR_METHODS = frozenset(
    {
        "add_entity",
        "add_surface_form",
        "add_hyperlink",
        "set_description",
        "link_tweet",
        "bulk_link",
        "prune_before",
        "add_node",
        "add_edge",
        "remove_edge",
    }
)

#: Stateful module-level functions of the ``random`` module (DET-002, and
#: FLOW-001's unseeded-RNG taint sources).
RANDOM_MODULE_FUNCTIONS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: Wall-clock call spellings banned in SCORING_MODULES (DET-003, and
#: FLOW-001's wall-clock taint sources).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Generic exception classes ERR-003 refuses in ``raise`` statements.
_GENERIC_EXCEPTIONS = frozenset(
    {"Exception", "BaseException", "RuntimeError", "SystemError"}
)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _from_imports(tree: ast.Module, module: str) -> Set[str]:
    """Local names bound by ``from <module> import ...`` in this file."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


# ---------------------------------------------------------------------- #
# DET — determinism
# ---------------------------------------------------------------------- #
@register
class UnseededRandomRule(Rule):
    id = "DET-001"
    severity = Severity.ERROR
    summary = "random.Random() must be constructed with an explicit seed"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        bare_random = _from_imports(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            dotted = _dotted(node.func)
            if dotted == "random.Random" or (
                dotted == "Random" and "Random" in bare_random
            ):
                yield self.finding(
                    ctx,
                    node,
                    "unseeded random.Random() — pass an explicit seed so "
                    "runs are reproducible",
                )


@register
class ModuleLevelRandomRule(Rule):
    id = "DET-002"
    severity = Severity.ERROR
    summary = "no module-level random.* calls (hidden global RNG state)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if (
                    dotted is not None
                    and dotted.startswith("random.")
                    and dotted[len("random."):] in RANDOM_MODULE_FUNCTIONS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() uses the shared module RNG; thread a "
                        "seeded random.Random(seed) instance instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                stateful = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in RANDOM_MODULE_FUNCTIONS
                )
                if stateful:
                    yield self.finding(
                        ctx,
                        node,
                        f"importing {', '.join(stateful)} from random binds "
                        "the shared module RNG; use a seeded "
                        "random.Random(seed) instance",
                    )


@register
class WallClockRule(Rule):
    id = "DET-003"
    severity = Severity.ERROR
    summary = (
        "no wall-clock reads in scoring/linking paths — query time flows "
        "in as an argument (Eq. 9 recency)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*SCORING_MODULES):
            return
        datetime_names = _from_imports(ctx.tree, "datetime")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            banned = dotted in WALL_CLOCK_CALLS or (
                # `from datetime import datetime; datetime.now()` resolves
                # through the local binding
                "." in dotted
                and dotted.split(".", 1)[0] in datetime_names
                and dotted.split(".")[-1] in ("now", "utcnow", "today")
            )
            if banned:
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() reads the wall clock inside a scoring/"
                    "linking path; timestamps must flow in via arguments "
                    "(time.monotonic/perf_counter are fine for timing)",
                )


# ---------------------------------------------------------------------- #
# ERR — error taxonomy
# ---------------------------------------------------------------------- #
@register
class BareExceptRule(Rule):
    id = "ERR-001"
    severity = Severity.ERROR
    summary = "no bare except: / except BaseException (swallows KeyboardInterrupt)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare except: catches SystemExit and "
                    "KeyboardInterrupt; name the exception types"
                )
            elif _dotted(node.type) == "BaseException":
                yield self.finding(
                    ctx, node, "except BaseException catches interpreter "
                    "shutdown signals; catch Exception subclasses by name"
                )


@register
class BroadExceptRule(Rule):
    id = "ERR-002"
    severity = Severity.ERROR
    summary = (
        "no `except Exception` outside justified boundaries — catch "
        "repro.errors taxonomy types"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            if any(_dotted(item) == "Exception" for item in types):
                yield self.finding(
                    ctx,
                    node,
                    "broad `except Exception` hides the transient/permanent "
                    "split; catch ReproError (or narrower taxonomy types), "
                    "or pragma this line as an intentional boundary",
                )


@register
class GenericRaiseRule(Rule):
    id = "ERR-003"
    severity = Severity.ERROR
    summary = (
        "raise taxonomy or contract errors, not generic "
        "Exception/RuntimeError"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            dotted = _dotted(target)
            if dotted in _GENERIC_EXCEPTIONS:
                yield self.finding(
                    ctx,
                    node,
                    f"raise {dotted} is untyped for callers; use a "
                    "repro.errors taxonomy class (serving failures) or a "
                    "specific contract error (ValueError/TypeError)",
                )


# ---------------------------------------------------------------------- #
# NUM — numeric discipline
# ---------------------------------------------------------------------- #
@register
class FloatEqualityRule(Rule):
    id = "NUM-001"
    severity = Severity.ERROR
    summary = (
        "no ==/!= on float score expressions in ranking/metric code "
        "(use exact-zero guards, tolerance, or total-order keys)"
    )

    #: Identifier segments that mark a value as a float score/measure.
    _FLOAT_SEGMENTS = frozenset(
        {
            "score", "scores", "recency", "interest", "popularity",
            "weight", "weights", "similarity", "accuracy", "prob",
            "probability", "rate", "ratio", "latency", "elapsed",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*NUMERIC_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            # `x == 0.0` is the sanctioned exact-zero guard: sums of
            # non-negative terms are exactly 0.0 iff every term is
            if any(self._is_zero_literal(item) for item in operands):
                continue
            if any(self._is_floatish(item) for item in operands):
                yield self.finding(
                    ctx,
                    node,
                    "float equality on a score expression is a platform "
                    "lottery for ties; compare with an explicit tolerance "
                    "(math.isclose), an exact-zero guard, or a total-order "
                    "key",
                )

    @staticmethod
    def _is_zero_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value == 0.0
        )

    def _is_floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                return False
            return dotted in ("float", "round") or dotted.startswith("math.")
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return False
        segments = name.lower().split("_")
        return any(segment in self._FLOAT_SEGMENTS for segment in segments)


# ---------------------------------------------------------------------- #
# CACHE — incremental consistency
# ---------------------------------------------------------------------- #
@register
class EpochBumpRule(Rule):
    id = "CACHE-001"
    severity = Severity.ERROR
    summary = (
        "mutators in epoch-owning modules must bump the epoch (or "
        "delegate to a mutator that does)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # A module is in scope iff it constructs an Epoch — that is what
        # makes it the *owner* of structural invalidation.  Modules that
        # merely wrap an epoch-owning structure (e.g. the dynamic-graph
        # facade) delegate their mutations and are covered transitively.
        if not self._owns_epoch(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in EPOCH_MUTATOR_METHODS:
                continue
            if self._bumps_or_delegates(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"{node.name}() mutates an epoch-versioned structure but "
                "never bumps the owning epoch; every score-cache entry "
                "keyed on it silently goes stale — call .bump() on the "
                "epoch, or delegate to a mutator that does",
            )

    @staticmethod
    def _owns_epoch(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            dotted = _dotted(value.func)
            if dotted is not None and dotted.split(".")[-1] == "Epoch":
                return True
        return False

    @staticmethod
    def _bumps_or_delegates(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr == "bump" or attr in EPOCH_MUTATOR_METHODS:
                return True
        return False


# ---------------------------------------------------------------------- #
# API — interface hygiene
# ---------------------------------------------------------------------- #
@register
class MutableDefaultRule(Rule):
    id = "API-001"
    severity = Severity.ERROR
    summary = "no mutable default arguments (shared across calls)"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}() is "
                        "shared across calls; default to None (or a tuple) "
                        "and build the container inside",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            return dotted in self._MUTABLE_CALLS
        return False


@register
class ShadowedBuiltinRule(Rule):
    id = "API-002"
    severity = Severity.WARNING
    summary = "no rebinding of commonly-used builtin names"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Class-body attributes and methods are reached through an
        # attribute lookup (`obj.id`, `pool.map`), so they never hide the
        # builtin from call sites — only real name bindings count.
        class_body = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                class_body.update(id(child) for child in node.body)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in SHADOWED_BUILTINS and id(node) not in class_body:
                    yield self._shadow(ctx, node, f"def {node.name}")
                for arg in self._args(node):
                    if arg.arg in SHADOWED_BUILTINS:
                        yield self._shadow(ctx, arg, f"parameter {arg.arg!r}")
            elif isinstance(node, ast.ClassDef):
                if node.name in SHADOWED_BUILTINS:
                    yield self._shadow(ctx, node, f"class {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For,
                                   ast.NamedExpr, ast.withitem)):
                if id(node) in class_body:
                    continue
                for name in self._bound_names(node):
                    if name.id in SHADOWED_BUILTINS:
                        yield self._shadow(ctx, name, f"assignment to {name.id!r}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound in SHADOWED_BUILTINS:
                        yield self._shadow(ctx, node, f"import binds {bound!r}")

    def _shadow(self, ctx: FileContext, node: ast.AST, what: str) -> Finding:
        return self.finding(
            ctx, node, f"{what} shadows a builtin; pick a more specific name"
        )

    @staticmethod
    def _args(node: ast.AST) -> Iterator[ast.arg]:
        args = node.args
        yield from args.posonlyargs
        yield from args.args
        yield from args.kwonlyargs
        if args.vararg:
            yield args.vararg
        if args.kwarg:
            yield args.kwarg

    @staticmethod
    def _bound_names(node: ast.AST) -> Iterator[ast.Name]:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, ast.NamedExpr):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = [node.optional_vars]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        yield element


@register
class MissingDunderAllRule(Rule):
    id = "API-003"
    severity = Severity.WARNING
    summary = "public package __init__.py files declare __all__"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_package_init() or ctx.module.startswith("tests"):
            return
        has_content = any(
            isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                              ast.AsyncFunctionDef, ast.ClassDef))
            for node in ctx.tree.body
        )
        if not has_content:
            return
        for node in ctx.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                return
        yield self.finding(
            ctx,
            ctx.tree.body[0] if ctx.tree.body else ctx.tree,
            f"package {ctx.module} re-exports names but declares no "
            "__all__; the public surface must be explicit",
        )


# ---------------------------------------------------------------------- #
# ANA — analyzer meta-rules (findings are emitted by the framework; the
# stubs exist so the ids appear in rule listings and documentation)
# ---------------------------------------------------------------------- #
@register
class PragmaJustificationRule(Rule):
    id = "ANA-001"
    severity = Severity.ERROR
    summary = "every noqa pragma carries a `-- justification` tail"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())  # emitted by the framework during pragma application


@register
class UnparseableFileRule(Rule):
    id = "ANA-002"
    severity = Severity.ERROR
    summary = "every checked file parses as Python"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())  # emitted by the framework when ast.parse fails
