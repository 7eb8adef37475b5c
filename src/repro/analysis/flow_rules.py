"""The FLOW rule family: whole-program checks over a ProjectContext.

Per-file rules (:mod:`repro.analysis.rules`) see one AST; these see the
import graph and the call graph of the whole tree:

========  ====================================================  =========
rule      invariant                                             per-file
========  ====================================================  =========
FLOW-002  only ``ReproError`` subtypes escape the serve          ERR-00x
          boundary (proven from may-raise summaries)
FLOW-004  no top-level import cycles; no dead module-level       —
          imports
========  ====================================================  =========

All resolution is best-effort (see :mod:`repro.analysis.project`):
unresolved calls contribute nothing, so a FLOW-002 finding is always
backed by an explicit chain the message spells out.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from repro.analysis.framework import Finding, ProjectRule, Severity, register
from repro.analysis.project import ProjectContext

__all__ = [
    "SERVE_BOUNDARY_MODULE",
    "SERVE_ROOT_EXCEPTION",
]

#: Module whose public functions form the serve boundary (FLOW-002).
SERVE_BOUNDARY_MODULE = "repro.serve.handlers"

#: Everything escaping the boundary must be a subtype of this class.
SERVE_ROOT_EXCEPTION = "repro.errors.ReproError"


def _qual_display(qualname: str) -> str:
    """Drop the package prefix for readable chain messages."""
    return qualname[len("repro."):] if qualname.startswith("repro.") else qualname


@register
class ServeExceptionContractRule(ProjectRule):
    id = "FLOW-002"
    severity = Severity.ERROR
    summary = (
        "only ReproError subtypes may propagate past the repro.serve."
        "handlers boundary (proven from may-raise summaries)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        boundary = project.modules.get(SERVE_BOUNDARY_MODULE)
        if boundary is None:
            return
        entries = sorted(
            qual
            for qual, function in boundary.functions.items()
            if not function.name.startswith("_")
        )
        reported: Set[Tuple[str, int, str]] = set()
        for entry in entries:
            for raised in sorted(project.may_raise(entry)):
                if project.exception_matches(raised, SERVE_ROOT_EXCEPTION):
                    continue
                for origin, line, chain in self._witnesses(project, entry, raised):
                    key = (origin, line, raised)
                    if key in reported:
                        continue
                    reported.add(key)
                    origin_module = project.modules[project.functions[origin].module]
                    display = raised.split(".")[-1]
                    via = " -> ".join(_qual_display(frame) for frame in chain)
                    yield Finding(
                        path=origin_module.path,
                        line=line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"{display} raised here escapes the serve "
                            f"boundary untyped (reached via {via}); clients "
                            "get a 500 instead of a typed error body — "
                            "raise a ReproError subtype or catch it at the "
                            "boundary"
                        ),
                        severity=self.severity,
                    )

    @staticmethod
    def _witnesses(
        project: ProjectContext, entry: str, raised: str
    ) -> List[Tuple[str, int, Tuple[str, ...]]]:
        """(function, raise line, call chain) of every unguarded site
        producing ``raised`` on some path from ``entry``."""
        results: List[Tuple[str, int, Tuple[str, ...]]] = []
        stack: List[Tuple[str, Tuple[str, ...]]] = [(entry, (entry,))]
        visited: Set[str] = set()
        while stack:
            qualname, chain = stack.pop()
            if qualname in visited:
                continue
            visited.add(qualname)
            module = project.functions[qualname].module
            for site, canonical in project.unguarded_raises(qualname):
                if canonical == raised:
                    results.append((qualname, site.line, chain))
            for site, target in project.calls_of(qualname):
                if (
                    target is not None
                    and raised in project.may_raise(target)
                    and not project.is_caught(module, raised, site.guards)
                ):
                    stack.append((target, chain + (target,)))
        return sorted(results)


@register
class ImportHygieneRule(ProjectRule):
    id = "FLOW-004"
    severity = Severity.WARNING
    summary = "no top-level import cycles; no unused module-level imports"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for cycle in project.import_cycles():
            first = project.modules[cycle[0]]
            loop = " -> ".join([*cycle, cycle[0]])
            yield Finding(
                path=first.path,
                line=1,
                col=0,
                rule=self.id,
                message=(
                    f"import cycle {loop}; break it with a deferred import "
                    "or by extracting the shared interface"
                ),
                severity=self.severity,
            )
        for summary in project.modules.values():
            exported = set(summary.dunder_all or ())
            for binding in summary.bindings:
                if not binding.top_level:
                    continue
                if binding.local.startswith("_"):
                    continue
                if binding.local in summary.used_names or binding.local in exported:
                    continue
                yield Finding(
                    path=summary.path,
                    line=binding.line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"imported name {binding.local!r} is never used in "
                        f"{summary.module} and is not re-exported via "
                        "__all__; remove the dead import"
                    ),
                    severity=self.severity,
                )
