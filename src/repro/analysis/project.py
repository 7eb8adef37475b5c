"""Whole-program context for the ``repro check`` FLOW rules.

The per-file rules of :mod:`repro.analysis.rules` see one AST at a time;
the invariant that actually breaks in practice is *cross-module*: a
serve handler lets a non-``ReproError`` raised three calls away escape
the typed-error boundary.  This module derives, from one parse of the
whole tree:

* an **import graph** — project-internal module dependencies, split into
  top-level (cycle-relevant) and deferred/``TYPE_CHECKING`` edges;
* a best-effort **call graph** — module-qualified resolution of direct
  calls, ``self.`` methods, imported names, annotated parameters and
  attribute-type chains (``self.registry.get(...)`` resolves through the
  ``__init__`` assignment types).  No dynamic-dispatch heroics: anything
  the resolver cannot prove is recorded as *unresolved* and contributes
  nothing to downstream analyses;
* per-function **may-raise sets**, propagated through the call graph
  with handler subtraction against the project's own exception
  hierarchy — the one fixpoint, read by FLOW-002.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import FileContext
from repro.analysis.rules import _dotted

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "ImportBinding",
    "ModuleSummary",
    "ProjectContext",
    "RaiseSite",
    "statement_anchors",
    "summarize",
]

#: Minimal builtin exception hierarchy (child -> parent) for may-raise
#: guard subtraction.  Project classes extend it via their ``bases``.
BUILTIN_EXCEPTION_PARENTS: Dict[str, str] = {
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "Exception": "BaseException",
    "FileNotFoundError": "OSError",
    "FloatingPointError": "ArithmeticError",
    "IndexError": "LookupError",
    "IOError": "OSError",
    "KeyError": "LookupError",
    "LookupError": "Exception",
    "MemoryError": "Exception",
    "NotADirectoryError": "OSError",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "OverflowError": "ArithmeticError",
    "PermissionError": "OSError",
    "RecursionError": "RuntimeError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "StopAsyncIteration": "Exception",
    "StopIteration": "Exception",
    "TimeoutError": "OSError",
    "TypeError": "Exception",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeError": "ValueError",
    "ValueError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
}


# ---------------------------------------------------------------------- #
# summaries
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str  # dotted callee as written, e.g. "self.admission.release"
    line: int
    #: Exception type names (as written) of every ``except`` handler whose
    #: ``try`` body encloses this call within the same function.
    guards: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class RaiseSite:
    """One ``raise <Type>(...)`` statement (bare re-raises are expanded
    into one site per enclosing handler type)."""

    name: str  # exception type name as written
    line: int
    guards: Tuple[str, ...] = ()


@dataclasses.dataclass
class FunctionSummary:
    """Call sites and raise sites of one function or method."""

    name: str
    qualname: str  # "module.Class.method" or "module.func"
    cls: Optional[str]
    line: int
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    raises: List[RaiseSite] = dataclasses.field(default_factory=list)
    #: Parameter name -> annotation (dotted source text) where present.
    params: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Local name -> dotted RHS call (``x = Foo(...)`` / ``t = self.r.get(...)``),
    #: resolved to types lazily by the project context.
    local_calls: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Return annotation (dotted source text) where present.
    returns: Optional[str] = None


@dataclasses.dataclass
class ClassSummary:
    """Structure of one class: bases, attribute types, methods."""

    name: str
    bases: List[str] = dataclasses.field(default_factory=list)
    #: Attribute -> dotted type name, from annotated ``__init__`` params
    #: assigned to ``self.<attr>``, ``self.<attr> = ClassName(...)`` and
    #: class-level annotations.
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)
    methods: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class ImportBinding:
    """One local name bound by an import statement."""

    local: str  # name bound in this module's namespace
    module: str  # absolute target module (relative imports resolved)
    symbol: str  # imported symbol for from-imports, "" for plain imports
    line: int
    top_level: bool  # module-level and not TYPE_CHECKING-guarded
    is_future: bool = False


@dataclasses.dataclass
class ModuleSummary:
    """Everything the whole-program layer knows about one file."""

    module: str
    path: str
    bindings: List[ImportBinding] = dataclasses.field(default_factory=list)
    functions: Dict[str, FunctionSummary] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassSummary] = dataclasses.field(default_factory=dict)
    #: Module-level ``NAME = ClassName(...)`` instance types (dotted RHS).
    var_calls: Dict[str, str] = dataclasses.field(default_factory=dict)
    dunder_all: Optional[List[str]] = None
    #: Every identifier read anywhere in the file (dead-import check).
    used_names: Set[str] = dataclasses.field(default_factory=set)
    #: Continuation line -> first line of its (innermost simple) statement;
    #: identity entries are omitted.
    anchors: Dict[int, int] = dataclasses.field(default_factory=dict)

    def binding_map(self) -> Dict[str, ImportBinding]:
        return {binding.local: binding for binding in self.bindings}


# ---------------------------------------------------------------------- #
# summarize: one AST pass per file
# ---------------------------------------------------------------------- #
def statement_anchors(tree: ast.Module) -> Dict[int, int]:
    """Map continuation lines of multi-line statements to their first line.

    Simple statements anchor their whole span; compound statements anchor
    only their *header* (``def``/``if``/``for`` line through the line
    before the first body statement), so a pragma on a ``def`` line never
    blankets the function body.  Walk order guarantees inner statements
    overwrite outer ones, so the innermost anchor wins.
    """
    anchors: Dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = body[0].lineno - 1
        else:
            end = node.end_lineno or start
        for line in range(start + 1, end + 1):
            anchors[line] = start
    return anchors


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Dotted type name out of an annotation, unwrapping ``Optional[...]``."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: parse it back into an expression and recurse
        try:
            parsed = ast.parse(node.value.strip(), mode="eval")
        except SyntaxError:
            return None
        return _annotation_name(parsed.body)
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if head in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
        return None
    return _dotted(node)


def _resolve_relative(module: str, is_package: bool, raw: Optional[str], level: int) -> str:
    """Absolute module name of a (possibly relative) import target."""
    if level == 0:
        return raw or ""
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop <= len(parts) else []
    base = ".".join(parts)
    if raw:
        return f"{base}.{raw}" if base else raw
    return base


class _Summarizer(ast.NodeVisitor):
    """Single-pass extraction of a :class:`ModuleSummary`."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.summary = ModuleSummary(module=ctx.module, path=ctx.path)
        self.summary.anchors = statement_anchors(ctx.tree)
        self._class_stack: List[ClassSummary] = []
        self._function_stack: List[FunctionSummary] = []
        self._guard_stack: List[Tuple[str, ...]] = []
        self._type_checking_depth = 0

    # -------------------------------------------------------------- #
    # helpers
    # -------------------------------------------------------------- #
    def _guards(self) -> Tuple[str, ...]:
        merged: List[str] = []
        for layer in self._guard_stack:
            merged.extend(layer)
        return tuple(merged)

    # -------------------------------------------------------------- #
    # imports
    # -------------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        top = not self._function_stack
        for alias in node.names:
            # `import a.b.c` binds local "a" but depends on module a.b.c;
            # keep the full dotted path so the import graph sees the edge
            local = alias.asname or alias.name.split(".")[0]
            self.summary.bindings.append(
                ImportBinding(
                    local=local,
                    module=alias.name,
                    symbol="",
                    line=node.lineno,
                    top_level=top and self._type_checking_depth == 0,
                )
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = _resolve_relative(
            self.ctx.module, self.ctx.is_package_init(), node.module, node.level
        )
        top = not self._function_stack
        future = target == "__future__"
        for alias in node.names:
            if alias.name == "*":
                continue
            self.summary.bindings.append(
                ImportBinding(
                    local=alias.asname or alias.name,
                    module=target,
                    symbol=alias.name,
                    line=node.lineno,
                    top_level=top and self._type_checking_depth == 0,
                    is_future=future,
                )
            )
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        test = _dotted(node.test)
        if test in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            self._type_checking_depth += 1
            self.generic_visit(node)
            self._type_checking_depth -= 1
        else:
            self.generic_visit(node)

    # -------------------------------------------------------------- #
    # names / __all__
    # -------------------------------------------------------------- #
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.summary.used_names.add(node.id)
        self.generic_visit(node)

    def _mark_string_annotation(self, node: Optional[ast.AST]) -> None:
        """Names inside a *string* annotation (``"Dict[int, float]"``) count
        as used — visit_Name never sees them, so FLOW-004 would otherwise
        flag their imports as dead."""
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            return
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        for sub in ast.walk(parsed):
            if isinstance(sub, ast.Name):
                self.summary.used_names.add(sub.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._mark_string_annotation(node.annotation)
        annotation = _annotation_name(node.annotation)
        target = node.target
        if annotation is not None:
            if self._class_stack and not self._function_stack and isinstance(
                target, ast.Name
            ):
                self._class_stack[-1].attr_types.setdefault(target.id, annotation)
            elif (
                self._function_stack
                and self._function_stack[-1].name == "__init__"
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._class_stack[-1].attr_types.setdefault(
                    target.attr, annotation
                )
        if node.value is not None:
            self._record_assign([target], node.value)
        self.generic_visit(node)

    def _record_assign(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if "__all__" in names and not self._class_stack and not self._function_stack:
            if isinstance(value, (ast.List, ast.Tuple)):
                self.summary.dunder_all = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
        call_name = (
            _dotted(value.func) if isinstance(value, ast.Call) else None
        )
        if call_name:
            if self._function_stack:
                for name in names:
                    self._function_stack[-1].local_calls.setdefault(name, call_name)
            elif not self._class_stack:
                for name in names:
                    self.summary.var_calls.setdefault(name, call_name)
        # self.<attr> = ... inside __init__: attribute typing
        if (
            self._function_stack
            and self._function_stack[-1].name == "__init__"
            and self._class_stack
        ):
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._init_attr_assign(target.attr, value)

    def _init_attr_assign(self, attr: str, value: ast.AST) -> None:
        cls = self._class_stack[-1]
        function = self._function_stack[-1]
        if isinstance(value, ast.Call):
            call_name = _dotted(value.func)
            if call_name:
                cls.attr_types.setdefault(attr, call_name)
        elif isinstance(value, ast.Name) and value.id in function.params:
            cls.attr_types.setdefault(attr, function.params[value.id])
        elif isinstance(value, ast.BoolOp):
            # `self.x = x or Default()` — prefer the constructed fallback
            for operand in value.values:
                if isinstance(operand, ast.Call):
                    call_name = _dotted(operand.func)
                    if call_name:
                        cls.attr_types.setdefault(attr, call_name)
                        break
                if isinstance(operand, ast.Name) and operand.id in function.params:
                    cls.attr_types.setdefault(attr, function.params[operand.id])
                    break

    # -------------------------------------------------------------- #
    # classes and functions
    # -------------------------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._function_stack or self._class_stack:
            # nested classes stay out of the best-effort model
            self.generic_visit(node)
            return
        cls = ClassSummary(
            name=node.name,
            bases=[base for base in (_dotted(b) for b in node.bases) if base],
        )
        self.summary.classes[node.name] = cls
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        if self._function_stack:  # nested defs fold into their parent
            self.generic_visit(node)
            return
        cls = self._class_stack[-1] if self._class_stack else None
        qual = (
            f"{self.ctx.module}.{cls.name}.{node.name}"
            if cls
            else f"{self.ctx.module}.{node.name}"
        )
        params: Dict[str, str] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self._mark_string_annotation(arg.annotation)
            annotation = _annotation_name(arg.annotation)
            if annotation:
                params[arg.arg] = annotation
        self._mark_string_annotation(node.returns)
        function = FunctionSummary(
            name=node.name,
            qualname=qual,
            cls=cls.name if cls else None,
            line=node.lineno,
            params=params,
            returns=_annotation_name(node.returns),
        )
        if cls is not None:
            cls.methods.append(node.name)
        self.summary.functions[qual] = function
        self._function_stack.append(function)
        self.generic_visit(node)
        self._function_stack.pop()

    # -------------------------------------------------------------- #
    # guards, raise sites and call sites
    # -------------------------------------------------------------- #
    def visit_Try(self, node: ast.Try) -> None:
        guard_names: List[str] = []
        for handler in node.handlers:
            # A handler containing a bare `raise` is *transparent*: the
            # original exception passes through untouched, so its types
            # must not be subtracted from the try body's may-raise set.
            if any(
                isinstance(inner, ast.Raise) and inner.exc is None
                for inner in ast.walk(handler)
            ):
                continue
            if handler.type is None:
                guard_names.append("BaseException")
                continue
            types = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            guard_names.extend(
                name for name in (_dotted(t) for t in types) if name
            )
        self._guard_stack.append(tuple(guard_names))
        for child in node.body:
            self.visit(child)
        self._guard_stack.pop()
        for handler in node.handlers:
            self.visit(handler)
        for child in node.orelse:
            self.visit(child)
        for child in node.finalbody:
            self.visit(child)

    def visit_Raise(self, node: ast.Raise) -> None:
        # Bare re-raises are modeled by transparent guards (visit_Try), so
        # only explicit `raise <Type>` statements contribute sites.
        if self._function_stack and node.exc is not None:
            function = self._function_stack[-1]
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _dotted(target)
            if name:
                function.raises.append(
                    RaiseSite(name=name, line=node.lineno, guards=self._guards())
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name and self._function_stack:
            self._function_stack[-1].calls.append(
                CallSite(name=name, line=node.lineno, guards=self._guards())
            )
        self.generic_visit(node)


def summarize(ctx: FileContext) -> ModuleSummary:
    """Build the whole-program summary of one parsed file."""
    visitor = _Summarizer(ctx)
    visitor.visit(ctx.tree)
    return visitor.summary


# ---------------------------------------------------------------------- #
# the project context
# ---------------------------------------------------------------------- #
class ProjectContext:
    """All module summaries plus derived graphs and fixpoints.

    The resolver is deliberately *best-effort and explicit about it*:
    :attr:`unresolved_calls` records every call it could not map to a
    project function, so downstream rules never silently pretend
    coverage they do not have.
    """

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            summary.module: summary
            for summary in sorted(summaries, key=lambda s: s.module)
        }
        self.functions: Dict[str, FunctionSummary] = {}
        self._bindings: Dict[str, Dict[str, ImportBinding]] = {}
        for summary in self.modules.values():
            self._bindings[summary.module] = summary.binding_map()
            self.functions.update(summary.functions)
        self._class_index: Dict[str, Tuple[str, ClassSummary]] = {}
        for summary in self.modules.values():
            for cls in summary.classes.values():
                self._class_index[f"{summary.module}.{cls.name}"] = (
                    summary.module,
                    cls,
                )
        self._exception_parents = self._build_exception_parents()
        self._local_type_stack: Set[Tuple[str, str]] = set()
        self._resolved: Dict[str, List[Tuple[CallSite, Optional[str]]]] = {}
        self.unresolved_calls: Dict[str, List[CallSite]] = {}
        self._resolve_all()
        self._may_raise: Optional[Dict[str, FrozenSet[str]]] = None

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #
    @classmethod
    def build(cls, paths: Sequence[str], root: str = "") -> "ProjectContext":
        """Parse every python file under ``paths`` once and summarize."""
        from repro.analysis.framework import iter_python_files

        summaries = []
        for file_path in iter_python_files(paths):
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                ctx = FileContext.parse(file_path, source, root=root)
            except SyntaxError:
                continue
            summaries.append(summarize(ctx))
        return cls(summaries)

    # -------------------------------------------------------------- #
    # import graph
    # -------------------------------------------------------------- #
    def import_edges(self, top_level_only: bool = False) -> Dict[str, List[str]]:
        """Project-internal import edges ``module -> [imported modules]``."""
        edges: Dict[str, List[str]] = {}
        for summary in self.modules.values():
            targets: Set[str] = set()
            for binding in summary.bindings:
                if binding.is_future:
                    continue
                if top_level_only and not binding.top_level:
                    continue
                target = self._project_module_of(binding)
                if target and target != summary.module:
                    targets.add(target)
            edges[summary.module] = sorted(targets)
        return edges

    def _project_module_of(self, binding: ImportBinding) -> Optional[str]:
        """The project module a binding depends on (None for external)."""
        if binding.module in self.modules:
            # `from pkg import name` may target pkg.name the submodule
            if binding.symbol:
                candidate = f"{binding.module}.{binding.symbol}"
                if candidate in self.modules:
                    return candidate
            return binding.module
        # plain `import a.b.c` binds "a" but depends on a.b.c
        for prefix in _module_prefixes(binding.module):
            if prefix in self.modules:
                return prefix
        return None

    def import_cycles(self) -> List[List[str]]:
        """Module cycles among top-level (non-deferred) imports, each
        reported once, rotated to start at its smallest module name."""
        edges = self.import_edges(top_level_only=True)
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        cycles: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for target in edges.get(node, ()):
                if target not in index:
                    strongconnect(target)
                    lowlink[node] = min(lowlink[node], lowlink[target])
                elif target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    pivot = component.index(min(component))
                    cycles.append(component[pivot:] + component[:pivot])

        for module in sorted(self.modules):
            if module not in index:
                strongconnect(module)
        return sorted(cycles)

    # -------------------------------------------------------------- #
    # call resolution
    # -------------------------------------------------------------- #
    def _resolve_all(self) -> None:
        for summary in self.modules.values():
            for function in summary.functions.values():
                resolved: List[Tuple[CallSite, Optional[str]]] = []
                missing: List[CallSite] = []
                for site in function.calls:
                    target = self.resolve_call(summary, function, site)
                    resolved.append((site, target))
                    if target is None:
                        missing.append(site)
                self._resolved[function.qualname] = resolved
                if missing:
                    self.unresolved_calls[function.qualname] = missing

    def calls_of(self, qualname: str) -> List[Tuple[CallSite, Optional[str]]]:
        """``(site, resolved qualname | None)`` pairs of one function."""
        return self._resolved.get(qualname, [])

    def resolve_call(
        self, summary: ModuleSummary, function: FunctionSummary, site: CallSite
    ) -> Optional[str]:
        """Best-effort project-function target of a call site."""
        parts = site.name.split(".")
        head, rest = parts[0], parts[1:]
        if head == "self" and function.cls:
            return self._walk_attrs(f"{summary.module}.{function.cls}", rest)
        for type_name in (
            function.params.get(head),
            self._local_type(summary, function, head),
        ):
            if type_name:
                class_qual = self._resolve_class_name(summary, type_name)
                if class_qual:
                    return self._walk_attrs(class_qual, rest)
        bindings = self._bindings[summary.module]
        if head in bindings and not bindings[head].is_future:
            binding = bindings[head]
            target = (
                f"{binding.module}.{binding.symbol}" if binding.symbol else binding.module
            )
            return self._resolve_qualified(".".join([target, *rest]) if rest else target)
        if not rest:
            if f"{summary.module}.{head}" in self.functions:
                return f"{summary.module}.{head}"
            if head in summary.classes:
                return self._constructor_of(f"{summary.module}.{head}")
            return None
        # module-level instance: VAR.method(...)
        if head in summary.var_calls:
            class_qual = self._resolve_class_name(summary, summary.var_calls[head])
            if class_qual:
                return self._walk_attrs(class_qual, rest)
        if f"{summary.module}.{head}" in self._class_index:
            return self._walk_attrs(f"{summary.module}.{head}", rest)
        return None

    def _local_type(
        self, summary: ModuleSummary, function: FunctionSummary, name: str
    ) -> Optional[str]:
        """Type of a local bound by ``x = Cls(...)`` or a resolvable call
        with a return annotation (one level, no fixpoint)."""
        rhs = function.local_calls.get(name)
        if rhs is None:
            return None
        # self-referential rebinds (`x = x.narrow(...)`) would recurse
        # forever through resolve_call; bail out of any in-progress local
        key = (function.qualname, name)
        if key in self._local_type_stack:
            return None
        self._local_type_stack.add(key)
        try:
            class_qual = self._resolve_class_name(summary, rhs)
            if class_qual:
                return class_qual
            target = self.resolve_call(
                summary, function, CallSite(name=rhs, line=function.line)
            )
            if target and target in self.functions:
                callee = self.functions[target]
                if callee.returns:
                    callee_summary = self.modules[_module_of(target, callee)]
                    return self._resolve_class_name(callee_summary, callee.returns)
            return None
        finally:
            self._local_type_stack.discard(key)

    def _resolve_class_name(
        self, summary: ModuleSummary, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve a (possibly dotted, possibly imported) class name to a
        project class qualname, chasing one-level re-exports."""
        seen = _seen or set()
        key = f"{summary.module}:{name}"
        if key in seen:
            return None
        seen.add(key)
        parts = name.split(".")
        head, rest = parts[0], parts[1:]
        if not rest and head in summary.classes:
            return f"{summary.module}.{head}"
        bindings = self._bindings[summary.module]
        if head in bindings and not bindings[head].is_future:
            binding = bindings[head]
            target = (
                f"{binding.module}.{binding.symbol}" if binding.symbol else binding.module
            )
            return self._qualified_class(".".join([target, *rest]), seen)
        if rest:
            return self._qualified_class(name, seen)
        return None

    def _qualified_class(
        self, qualified: str, seen: Set[str]
    ) -> Optional[str]:
        if qualified in self._class_index:
            return qualified
        module, remainder = self._split_module(qualified)
        if module is None or not remainder:
            return None
        if len(remainder) == 1:
            name = remainder[0]
            target = self.modules[module]
            if name in target.classes:
                return f"{module}.{name}"
            return self._resolve_class_name(target, name, seen)
        return None

    def _split_module(
        self, qualified: str
    ) -> Tuple[Optional[str], List[str]]:
        """Longest project-module prefix and the remaining attribute path."""
        parts = qualified.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None, parts

    def _resolve_qualified(self, qualified: str) -> Optional[str]:
        module, remainder = self._split_module(qualified)
        if module is None:
            return None
        summary = self.modules[module]
        if not remainder:
            return None
        head, rest = remainder[0], remainder[1:]
        if not rest:
            qual = f"{module}.{head}"
            if qual in self.functions:
                return qual
            if head in summary.classes:
                return self._constructor_of(qual)
            bindings = self._bindings[module]
            if head in bindings and not bindings[head].is_future:
                binding = bindings[head]
                target = (
                    f"{binding.module}.{binding.symbol}"
                    if binding.symbol
                    else binding.module
                )
                return self._resolve_qualified(target)
            return None
        if head in summary.classes:
            return self._walk_attrs(f"{module}.{head}", rest)
        if head in summary.var_calls:
            class_qual = self._resolve_class_name(summary, summary.var_calls[head])
            if class_qual:
                return self._walk_attrs(class_qual, rest)
        bindings = self._bindings[module]
        if head in bindings and not bindings[head].is_future:
            binding = bindings[head]
            target = (
                f"{binding.module}.{binding.symbol}" if binding.symbol else binding.module
            )
            return self._resolve_qualified(".".join([target, *rest]))
        return None

    def _constructor_of(self, class_qual: str) -> Optional[str]:
        method = self._find_method(class_qual, "__init__")
        return method

    def _walk_attrs(self, class_qual: str, attrs: List[str]) -> Optional[str]:
        """Follow ``obj.a.b.method()`` through attribute types to a method."""
        if not attrs:
            return self._constructor_of(class_qual)
        current = class_qual
        for attr in attrs[:-1]:
            type_name = self._attr_type(current, attr)
            if type_name is None:
                return None
            module, _cls = self._class_index[current]
            resolved = self._resolve_class_name(self.modules[module], type_name)
            if resolved is None:
                return None
            current = resolved
        return self._find_method(current, attrs[-1])

    def _attr_type(self, class_qual: str, attr: str) -> Optional[str]:
        for qual in self._mro(class_qual):
            _module, cls = self._class_index[qual]
            if attr in cls.attr_types:
                return cls.attr_types[attr]
        return None

    def _find_method(self, class_qual: str, method: str) -> Optional[str]:
        for qual in self._mro(class_qual):
            module, cls = self._class_index[qual]
            if method in cls.methods:
                return f"{module}.{cls.name}.{method}"
        return None

    def _mro(self, class_qual: str) -> List[str]:
        """Linearized project-class ancestry (best-effort, cycle-safe)."""
        order: List[str] = []
        queue = [class_qual]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self._class_index:
                continue
            seen.add(current)
            order.append(current)
            module, cls = self._class_index[current]
            summary = self.modules[module]
            for base in cls.bases:
                resolved = self._resolve_class_name(summary, base)
                if resolved:
                    queue.append(resolved)
        return order

    # -------------------------------------------------------------- #
    # exception hierarchy + may-raise fixpoint
    # -------------------------------------------------------------- #
    def _build_exception_parents(self) -> Dict[str, str]:
        parents = dict(BUILTIN_EXCEPTION_PARENTS)
        for class_qual, (module, cls) in self._class_index.items():
            summary = self.modules[module]
            for base in cls.bases:
                resolved = self._resolve_class_name(summary, base)
                parents[class_qual] = resolved if resolved else base.split(".")[-1]
                break  # first base is enough for exception chains
        return parents

    def canonical_exception(
        self, summary: ModuleSummary, name: str
    ) -> str:
        """Project-qualified exception name, or the bare builtin name."""
        resolved = self._resolve_class_name(summary, name)
        return resolved if resolved else name.split(".")[-1]

    def exception_matches(self, raised: str, guard: str) -> bool:
        """Would ``except <guard>`` catch an instance of ``raised``?"""
        if guard in ("BaseException",):
            return True
        current: Optional[str] = raised
        seen: Set[str] = set()
        while current and current not in seen:
            if current == guard:
                return True
            seen.add(current)
            current = self._exception_parents.get(current)
        return False

    def _guard_catches(
        self, summary: ModuleSummary, raised: str, guards: Tuple[str, ...]
    ) -> bool:
        return any(
            self.exception_matches(raised, self.canonical_exception(summary, guard))
            for guard in guards
        )

    def may_raise(self) -> Dict[str, FrozenSet[str]]:
        """Escaping exception types per function, propagated through the
        call graph with per-call-site handler subtraction (fixpoint)."""
        if self._may_raise is not None:
            return self._may_raise
        sets: Dict[str, Set[str]] = {qual: set() for qual in self.functions}
        module_of = {
            qual: self.modules[_module_of(qual, function)]
            for qual, function in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qual, function in self.functions.items():
                summary = module_of[qual]
                current: Set[str] = set()
                for site in function.raises:
                    canonical = self.canonical_exception(summary, site.name)
                    if not self._guard_catches(summary, canonical, site.guards):
                        current.add(canonical)
                for site, target in self.calls_of(qual):
                    if target is None or target not in sets:
                        continue
                    for raised in sets[target]:
                        if not self._guard_catches(summary, raised, site.guards):
                            current.add(raised)
                if current - sets[qual]:
                    sets[qual] |= current
                    changed = True
        self._may_raise = {qual: frozenset(value) for qual, value in sets.items()}
        return self._may_raise

    def summary_of(self, qualname: str) -> ModuleSummary:
        """The module summary owning one function qualname."""
        return self.modules[_module_of(qualname, self.functions[qualname])]


def _module_prefixes(module: str) -> List[str]:
    """``a.b.c`` -> [``a.b.c``, ``a.b``, ``a``] (longest first)."""
    parts = module.split(".")
    return [".".join(parts[:cut]) for cut in range(len(parts), 0, -1)]


def _module_of(qualname: str, function: FunctionSummary) -> str:
    suffix = f".{function.cls}.{function.name}" if function.cls else f".{function.name}"
    return qualname[: -len(suffix)]
