"""Whole-program context for the ``repro check`` FLOW rules.

The per-file rules of :mod:`repro.analysis.rules` see one AST at a time;
the invariant that actually breaks in practice is *cross-module*: a
serve handler lets a non-``ReproError`` raised three calls away escape
the typed-error boundary.  This module derives, from one parse of the
whole tree:

* an **import graph** — project-internal module dependencies, split into
  top-level (cycle-relevant) and deferred/``TYPE_CHECKING`` edges;
* a best-effort **call graph**, resolved on demand — direct calls,
  ``self.`` methods, imported and re-exported names, module-level
  instances, annotated parameters, typed locals and attribute-type chains
  (``self.registry.get(...)`` resolves through the ``__init__``
  assignment types).  No dynamic dispatch, no inheritance: a call the
  resolver cannot prove resolves to ``None`` and contributes nothing to
  downstream analyses;
* per-function **may-raise sets**, propagated through the call graph
  with handler subtraction against the project's own exception classes
  and ``builtins`` — the one fixpoint, read by FLOW-002.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import FileContext
from repro.analysis.rules import _dotted

__all__ = [
    "ClassSummary",
    "FunctionSummary",
    "ImportBinding",
    "ModuleSummary",
    "ProjectContext",
    "Site",
    "statement_anchors",
    "summarize",
]


# ---------------------------------------------------------------------- #
# summaries
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Site:
    """One call expression or one ``raise <Type>`` statement inside a
    function body (bare re-raises are modeled by transparent guards)."""

    name: str  # dotted callee or exception type as written, e.g. "self.r.get"
    line: int
    #: Exception type names (as written) of every ``except`` handler whose
    #: ``try`` body encloses this site within the same function.
    guards: Tuple[str, ...] = ()


@dataclasses.dataclass
class FunctionSummary:
    """Call sites and raise sites of one function or method."""

    name: str
    qualname: str  # "module.Class.method" or "module.func"
    module: str
    cls: Optional[str]
    line: int
    calls: List[Site] = dataclasses.field(default_factory=list)
    raises: List[Site] = dataclasses.field(default_factory=list)
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
        if target == "__future__":  # a compiler directive, not a name
            return
        top = not self._function_stack
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
            module=self.ctx.module,
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
                    Site(name=name, line=node.lineno, guards=self._guards())
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name and self._function_stack:
            self._function_stack[-1].calls.append(
                Site(name=name, line=node.lineno, guards=self._guards())
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
    """All module summaries plus the graphs and the fixpoint derived from them.

    Everything derived is computed on first request: a function's call
    sites are resolved when :meth:`calls_of` is first asked for them, and
    :meth:`may_raise` solves its fixpoint over the functions one entry
    reaches, so a run resolves only what its rules walk.
    """

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            summary.module: summary
            for summary in sorted(summaries, key=lambda s: s.module)
        }
        self.functions: Dict[str, FunctionSummary] = {}
        self._classes: Dict[str, ClassSummary] = {}
        self._bindings: Dict[str, Dict[str, ImportBinding]] = {}
        for summary in self.modules.values():
            self.functions.update(summary.functions)
            for cls in summary.classes.values():
                self._classes[f"{summary.module}.{cls.name}"] = cls
            self._bindings[summary.module] = {
                binding.local: binding for binding in summary.bindings
            }
        self._local_type_stack: Set[Tuple[str, str]] = set()
        self._calls: Dict[str, List[Tuple[Site, Optional[str]]]] = {}
        self._may_raise: Dict[str, FrozenSet[str]] = {}

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
    def import_edges(self) -> Dict[str, List[str]]:
        """Project-internal top-level import edges ``module -> [imported
        modules]``; deferred and ``TYPE_CHECKING`` imports are not edges."""
        edges: Dict[str, List[str]] = {}
        for summary in self.modules.values():
            targets: Set[str] = set()
            for binding in summary.bindings:
                if not binding.top_level:
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
        edges = self.import_edges()
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
    def calls_of(self, qualname: str) -> List[Tuple[Site, Optional[str]]]:
        """``(site, resolved qualname | None)`` pairs of one function."""
        if qualname not in self._calls:
            function = self.functions[qualname]
            self._calls[qualname] = [
                (site, self._resolve(function, site.name)) for site in function.calls
            ]
        return self._calls[qualname]

    def reach(self, entry: str) -> List[str]:
        """``entry`` and every function a resolved call chain from it reaches."""
        order: List[str] = []
        seen: Set[str] = set()
        stack = [entry]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            order.append(qualname)
            stack.extend(t for _, t in self.calls_of(qualname) if t is not None)
        return order

    def _resolve(self, function: FunctionSummary, name: str) -> Optional[str]:
        """Project function or method a call to ``name`` inside ``function``
        reaches; a class called is its ``__init__``."""
        head, *rest = name.split(".")
        if head == "self" and function.cls:
            cls: Optional[str] = f"{function.module}.{function.cls}"
        else:
            cls = self._class_of(function.module, function.params.get(head))
            cls = cls or self._local_type(function, head)
        if cls:
            target = self._walk_attrs(cls, rest)
        else:
            target = self._lookup(function.module, name)
        if target in self._classes:
            return self._method(target, "__init__")
        return target

    def _local_type(self, function: FunctionSummary, name: str) -> Optional[str]:
        """Class of a local bound by ``x = Cls(...)`` or by a resolvable call
        with a return annotation (one level, no fixpoint)."""
        rhs = function.local_calls.get(name)
        # self-referential rebinds (`x = x.narrow(...)`) would recurse
        # forever through _resolve; bail out of any in-progress local
        key = (function.qualname, name)
        if rhs is None or key in self._local_type_stack:
            return None
        self._local_type_stack.add(key)
        try:
            cls = self._class_of(function.module, rhs)
            if cls:
                return cls
            callee = self.functions.get(self._resolve(function, rhs) or "")
            return self._class_of(callee.module, callee.returns) if callee else None
        finally:
            self._local_type_stack.discard(key)

    def _lookup(
        self, module: str, dotted: str, seen: FrozenSet[str] = frozenset()
    ) -> Optional[str]:
        """The project function, class or method ``dotted`` names in
        ``module``'s namespace, following imports, re-exports, module-level
        instances (``METRICS.incr``) and attribute types (``Cls.attr.method``)."""
        summary = self.modules[module]
        head, *rest = dotted.split(".")
        qual = f"{module}.{head}"
        if qual in seen:  # a re-export or instance cycle
            return None
        seen = seen | {qual}
        if head in summary.classes:
            return self._walk_attrs(qual, rest)
        if qual in self.functions:
            return None if rest else qual
        if rest and head in summary.var_calls:
            cls = self._class_of(module, summary.var_calls[head], seen)
            return self._walk_attrs(cls, rest) if cls else None
        binding = self._bindings[module].get(head)
        if binding is None:
            return None
        target = ".".join(
            part for part in (binding.module, binding.symbol, *rest) if part
        )
        for prefix in _module_prefixes(target):
            if prefix in self.modules:
                remainder = target[len(prefix) + 1:]
                return self._lookup(prefix, remainder, seen) if remainder else None
        return None

    def _class_of(
        self, module: str, name: Optional[str], seen: FrozenSet[str] = frozenset()
    ) -> Optional[str]:
        """Project class qualname ``name`` (as written in ``module``) denotes."""
        qual = self._lookup(module, name, seen) if name else None
        return qual if qual in self._classes else None

    def _walk_attrs(self, class_qual: str, attrs: Sequence[str]) -> Optional[str]:
        """Follow ``obj.a.b.method`` through attribute types to a method;
        no attributes name the class itself."""
        for attr in attrs[:-1]:
            type_name = self._classes[class_qual].attr_types.get(attr)
            resolved = self._class_of(class_qual.rpartition(".")[0], type_name)
            if resolved is None:
                return None
            class_qual = resolved
        return self._method(class_qual, attrs[-1]) if attrs else class_qual

    def _method(self, class_qual: str, method: str) -> Optional[str]:
        """A method the class itself defines (inherited ones are not
        followed)."""
        if method in self._classes[class_qual].methods:
            return f"{class_qual}.{method}"
        return None

    # -------------------------------------------------------------- #
    # exception hierarchy + may-raise fixpoint
    # -------------------------------------------------------------- #
    def canonical_exception(self, module: str, name: str) -> str:
        """Project-qualified exception class, or the bare builtin name."""
        return self._class_of(module, name) or name.split(".")[-1]

    def exception_matches(self, raised: str, guard: str) -> bool:
        """Would ``except <guard>`` catch an instance of ``raised``?  A
        project class is followed through its first base, a builtin
        through :mod:`builtins`."""
        seen: Set[str] = set()
        while raised in self._classes and raised != guard and raised not in seen:
            seen.add(raised)
            bases = self._classes[raised].bases
            if not bases:
                break
            raised = self.canonical_exception(raised.rpartition(".")[0], bases[0])
        if raised == guard or guard == "BaseException":
            return True
        raised_type = getattr(builtins, raised, None)
        guard_type = getattr(builtins, guard, None)
        return (
            isinstance(raised_type, type)
            and isinstance(guard_type, type)
            and issubclass(raised_type, guard_type)
        )

    def is_caught(self, module: str, raised: str, guards: Tuple[str, ...]) -> bool:
        """Does any of ``guards`` (as written in ``module``) catch ``raised``?"""
        return any(
            self.exception_matches(raised, self.canonical_exception(module, guard))
            for guard in guards
        )

    def unguarded_raises(self, qualname: str) -> List[Tuple[Site, str]]:
        """``(site, canonical type)`` of every raise in one function that no
        enclosing handler of that function catches."""
        function = self.functions[qualname]
        pairs = (
            (site, self.canonical_exception(function.module, site.name))
            for site in function.raises
        )
        return [
            (site, raised)
            for site, raised in pairs
            if not self.is_caught(function.module, raised, site.guards)
        ]

    def may_raise(self, qualname: str) -> FrozenSet[str]:
        """Exception types that can escape one function: its unguarded
        raises plus, per call site, whatever its callee may raise that the
        site's handlers do not catch (a fixpoint over the function's reach,
        solved on first request)."""
        if qualname not in self._may_raise:
            pending = [q for q in self.reach(qualname) if q not in self._may_raise]
            sets: Dict[str, Set[str]] = {
                q: {raised for _, raised in self.unguarded_raises(q)} for q in pending
            }
            changed = True
            while changed:
                changed = False
                for qual in pending:
                    module = self.functions[qual].module
                    for site, target in self.calls_of(qual):
                        if target is None:
                            continue
                        known = sets if target in sets else self._may_raise
                        escaping = {
                            raised
                            for raised in known[target]
                            if raised not in sets[qual]
                            and not self.is_caught(module, raised, site.guards)
                        }
                        if escaping:
                            sets[qual] |= escaping
                            changed = True
            self._may_raise.update((q, frozenset(s)) for q, s in sets.items())
        return self._may_raise[qualname]


def _module_prefixes(module: str) -> List[str]:
    """``a.b.c`` -> [``a.b.c``, ``a.b``, ``a``] (longest first)."""
    parts = module.split(".")
    return [".".join(parts[:cut]) for cut in range(len(parts), 0, -1)]
