"""The per-file ``repro check`` rules: this repo's invariants, machine-checked.

Each rule encodes a convention the serving and replay contracts rely on
but cannot assert at runtime:

* **DET** — determinism.  Bit-identical batch/sequential linking and
  reproducible evaluation both die the moment an unseeded RNG or a wall
  clock leaks into a scoring path (the paper's recency model, Eq. 9, is
  a function of the *query* time, which must arrive as an argument).
  These three rules are the only walk over the banned-call tables below.
* **ERR** — the typed error taxonomy.  The serve boundary renders each
  :mod:`repro.errors` type as its own status and kind, which only works
  if code raises taxonomy types and handlers catch exactly what they can
  handle.
* **CACHE** — incremental consistency.  The score caches trust epoch
  counters for invalidation; a mutator that forgets to bump its owning
  epoch serves stale candidates/popularity/interest silently, breaking
  the cached≡uncached bit-identity contract.  (Retires with
  :mod:`repro.cache`.)

Rules are deliberately *narrow*: each matches the concrete patterns this
codebase uses, not every theoretical variant — a static gate earns its
keep by being quiet on correct code, and generic Python hygiene is not
its job.  Suppression (an inline pragma) always needs a written
justification and must suppress something; see
:mod:`repro.analysis.pragmas`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.framework import FileContext, Finding, Rule, register

__all__ = [
    "EPOCH_MUTATOR_METHODS",
    "RANDOM_MODULE_FUNCTIONS",
    "SCORING_MODULES",
    "WALL_CLOCK_CALLS",
]

#: Scoring/linking scope of the wall-clock ban: everything whose output
#: feeds a score, a rank, or an evaluation table.  Serving-side modules
#: (stream, resilience, cli, log) may read clocks — that is
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

#: Methods that mutate an epoch-versioned structure (CACHE-001).  Any
#: class in a module that constructs an :class:`repro.cache.epochs.Epoch`
#: must bump it (directly or by delegating to another mutator here) in
#: every one of these methods it defines.
EPOCH_MUTATOR_METHODS = frozenset(
    {
        "add_entity",
        "add_surface_form",
        "add_hyperlink",
        "link_tweet",
        "bulk_link",
        "add_edge",
    }
)

#: Stateful module-level functions of the ``random`` module (DET-002).
RANDOM_MODULE_FUNCTIONS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: Wall-clock call spellings banned in SCORING_MODULES (DET-003).
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
class BroadExceptRule(Rule):
    id = "ERR-002"
    summary = (
        "no bare `except:` / `except BaseException` / `except Exception` "
        "outside justified boundaries — catch repro.errors taxonomy types"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                caught = "bare `except:`"
            else:
                types = (
                    node.type.elts
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                broad = self._BROAD.intersection(map(_dotted, types))
                if not broad:
                    continue
                caught = f"broad `except {min(broad)}`"
            yield self.finding(
                ctx,
                node,
                f"{caught} hides which taxonomy type failed, the status and "
                "kind the serve boundary renders (and, wider than Exception, "
                "swallows KeyboardInterrupt/SystemExit); "
                "catch ReproError (or narrower taxonomy types), or pragma "
                "this line as an intentional boundary",
            )


@register
class GenericRaiseRule(Rule):
    id = "ERR-003"
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
# CACHE — incremental consistency
# ---------------------------------------------------------------------- #
@register
class EpochBumpRule(Rule):
    id = "CACHE-001"
    summary = (
        "mutators in epoch-owning modules must bump the epoch (or "
        "delegate to a mutator that does)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # A module is in scope iff it constructs an Epoch — that is what
        # makes it the *owner* of structural invalidation.  Modules that
        # merely wrap an epoch-owning structure delegate their mutations
        # and are covered transitively.
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
# ANA — analyzer meta-rules (findings are emitted by the framework; the
# stubs exist so the ids appear in rule listings and documentation)
# ---------------------------------------------------------------------- #
@register
class PragmaJustificationRule(Rule):
    id = "ANA-001"
    summary = (
        "every noqa pragma carries a `-- justification` tail and "
        "suppresses at least one finding"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())  # emitted by the framework during pragma application


@register
class UnparseableFileRule(Rule):
    id = "ANA-002"
    summary = "every checked file parses as Python"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())  # emitted by the framework when ast.parse fails
