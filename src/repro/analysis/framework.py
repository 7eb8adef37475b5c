"""Rule framework of the ``repro check`` static analyzer.

The analyzer is deliberately pure-stdlib: every rule works on the
``ast`` module's tree of one file plus a little path context, so the
gate runs anywhere the library runs — no third-party linter needed and
no version skew between CI and a contributor's machine.

The moving parts:

* :class:`FileContext` — one parsed file (path, dotted module name,
  source lines, AST) plus helpers rules share;
* :class:`Rule` — the plugin base class; concrete rules declare ``id``
  and ``summary`` and yield :class:`Finding`\\ s from :meth:`Rule.check`;
* :func:`register` / :func:`all_rules` — the registry that makes the
  rule pack discoverable without hard-coding a list anywhere;
* :func:`run_check` — the driver: walk files, parse, run every rule,
  apply ``noqa[...]`` pragmas, and return a :class:`CheckReport`.

Every finding fails the gate: a rule either protects an invariant or it
should not exist, so there is no severity level to tune.

Suppression has exactly one mechanism, the inline pragma
(:mod:`repro.analysis.pragmas`), and it carries a *justification* so an
exempted finding never loses its paper trail.  A pragma without a
justification is itself a finding (``ANA-001``) — the suppression still
applies, but the gate stays red until the "why" is written down — and
so is a pragma that suppresses nothing: a stale exemption reads as
coverage the gate does not have.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Type

from repro.analysis.pragmas import Pragma, parse_pragmas, statement_anchors

__all__ = [
    "CheckReport",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "iter_python_files",
    "register",
    "run_check",
]


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclasses.dataclass(frozen=True)
class FileContext:
    """Everything a rule may look at for one file."""

    path: str  # repo-relative posix path, e.g. "src/repro/core/linker.py"
    module: str  # dotted module name, e.g. "repro.core.linker"
    source: str
    lines: Tuple[str, ...]
    tree: ast.Module

    @classmethod
    def parse(cls, path: str, source: str, root: str = "") -> "FileContext":
        relative = os.path.relpath(path, root) if root else path
        relative = relative.replace(os.sep, "/")
        return cls(
            path=relative,
            module=_module_name(relative),
            source=source,
            lines=tuple(source.splitlines()),
            tree=ast.parse(source, filename=relative),
        )

    def in_module(self, *prefixes: str) -> bool:
        """Whether this file's dotted module matches any prefix exactly or
        as a package ancestor (``repro.core`` matches ``repro.core.linker``)."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def is_package_init(self) -> bool:
        return self.path.endswith("__init__.py")


def _module_name(path: str) -> str:
    """Dotted module name of a posix ``path``: the components after its
    last ``src``/``lib`` directory, so the name does not depend on where
    the path starts (``/abs/repo/src/repro/x.py`` is ``repro.x``)."""
    parts = path[:-3].split("/")  # drop ".py"
    roots = [index for index, part in enumerate(parts[:-1]) if part in ("src", "lib")]
    if roots:
        parts = parts[roots[-1] + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Rule:
    """Base class of every check; subclasses self-register via
    :func:`register` and yield findings from :meth:`check`.

    ``id`` follows ``<FAMILY>-<NNN>`` (DET/ERR/CACHE/ANA families);
    ``summary`` is the one-liner shown in reports and the DESIGN.md rule
    table.
    """

    id: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (by instance) to the registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls()
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, in stable id order."""
    import repro.analysis.rules  # noqa: F401 — registration side effect

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


# ---------------------------------------------------------------------- #
# pragma application
# ---------------------------------------------------------------------- #
#: Rule id of the pragma-discipline meta-findings (no justification, or
#: nothing suppressed).
PRAGMA_RULE = "ANA-001"


def _apply_pragmas(
    findings: List[Finding],
    pragmas: Dict[int, Pragma],
    path: str,
    anchors: Dict[int, int],
) -> Tuple[List[Finding], List[Finding]]:
    """Split ``findings`` into (kept, suppressed) per the file's pragmas,
    and append an ``ANA-001`` finding for every pragma lacking a
    justification and for every pragma that suppressed nothing.

    ``anchors`` maps continuation lines of multi-line statements to the
    statement's first line, so a ``noqa`` on the opening line of a
    wrapped call also covers findings reported on its continuation lines.
    """
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used = set()
    for finding in findings:
        pragma = pragmas.get(finding.line)
        if pragma is None and finding.line in anchors:
            pragma = pragmas.get(anchors[finding.line])
        if pragma is not None and pragma.covers(finding.rule):
            suppressed.append(finding)
            used.add(pragma.line)
        else:
            kept.append(finding)
    for line in sorted(pragmas):
        pragma = pragmas[line]
        problems = []
        if not pragma.justification:
            problems.append(
                "noqa pragma has no justification; write "
                "`# repro: noqa[RULE] -- why this boundary is sound`"
            )
        if line not in used:
            problems.append(
                f"noqa[{','.join(sorted(pragma.rules))}] suppresses no finding "
                "on this statement; delete the stale pragma (keep the reason "
                "as a plain comment if it still informs)"
            )
        kept.extend(
            Finding(path, line, 0, PRAGMA_RULE, message)
            for message in problems
        )
    return kept, suppressed


# ---------------------------------------------------------------------- #
# driver
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class CheckReport:
    """Outcome of one analyzer run over a file set."""

    findings: List[Finding]
    suppressed_pragma: List[Finding]
    files_scanned: int
    parse_errors: List[Finding] = dataclasses.field(default_factory=list)

    def exit_code(self) -> int:
        """0 when the gate passes; 1 when any unsuppressed finding fails it."""
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, deduplicated .py file list.

    Deduplication is by normalized path, so overlapping arguments
    (``repro check src src/repro``) and spelling variants (``./src`` vs
    ``src``) never double-report the same file; the first spelling given
    wins so report paths stay stable.  A path that does not exist raises
    ``FileNotFoundError``: a mistyped argument must not pass the gate by
    scanning nothing.
    """
    seen = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            candidates: Iterable[str] = [path]
        elif os.path.isdir(path):
            # os.walk order is fs-dependent; the final sorted() makes the
            # file list deterministic regardless
            candidates = (
                os.path.join(dirpath, name)
                for dirpath, _dirnames, names in os.walk(path)
                for name in names
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            normalized = os.path.normpath(candidate)
            if candidate.endswith(".py") and normalized not in seen:
                seen.add(normalized)
                collected.append(candidate)
    return iter(sorted(collected))


def run_check(paths: Sequence[str], root: str = "") -> CheckReport:
    """Run every rule over every python file under ``paths``.

    ``root`` anchors the repo-relative paths used in reports and pragmas,
    so a run from any working directory produces identical output.
    Unparseable files produce an ``ANA-002`` finding instead of crashing
    the gate (a syntax error must fail CI loudly, not with a traceback).
    ``paths`` naming no python file at all raises ``FileNotFoundError``.

    Each file is one pass: read and parse it, run every rule over its
    AST, then apply its pragmas.
    """
    files = list(iter_python_files(paths))
    if not files:
        raise FileNotFoundError(f"no python file under: {' '.join(paths)}")
    rules = all_rules()
    report = CheckReport(findings=[], suppressed_pragma=[], files_scanned=0)
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            ctx = FileContext.parse(file_path, source, root=root)
        except SyntaxError as exc:
            # no rule ran on this file, so its pragmas cannot be judged
            relative = (
                os.path.relpath(file_path, root) if root else file_path
            ).replace(os.sep, "/")
            report.parse_errors.append(
                Finding(
                    path=relative,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule="ANA-002",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        report.files_scanned += 1
        raw = [finding for rule in rules for finding in rule.check(ctx)]
        kept, by_pragma = _apply_pragmas(
            raw, parse_pragmas(ctx.lines), ctx.path, statement_anchors(ctx.tree)
        )
        report.suppressed_pragma.extend(by_pragma)
        report.findings.extend(kept)
    report.findings.extend(report.parse_errors)
    report.findings.sort()
    report.suppressed_pragma.sort()
    return report
