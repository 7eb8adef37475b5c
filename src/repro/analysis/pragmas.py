"""Inline suppression pragmas for ``repro check``.

A finding is suppressed on the line that carries::

    # repro: noqa[DET-003] -- report stamp; tests inject generated_at
    # repro: noqa[ERR-002,ANA-002] -- multi-rule form
    # repro: noqa[*] -- blanket form (discouraged; still needs a why)

The ``-- justification`` tail is part of the contract: the analyzer
treats a pragma without one as an ``ANA-001`` finding, so every
suppression in the tree explains itself — and a pragma that suppresses
nothing as another, so none outlives the finding it was written for.
The pragma applies only to findings reported **on its own line** (or on
a continuation line of the statement that line opens) — there is no
file-level or block-level form, which keeps suppressions exactly as
narrow as the violation they cover.

Only real ``#`` comments count: the examples above sit in a string
literal, suppress nothing, and must not be reported stale for it.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Dict, FrozenSet, Sequence

__all__ = ["Pragma", "parse_pragmas", "statement_anchors"]

#: ``# repro: noqa[RULE-ID,...]`` with an optional ``-- why`` tail.
_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Za-z0-9*,\- ]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclasses.dataclass(frozen=True)
class Pragma:
    """One parsed suppression comment."""

    line: int
    rules: FrozenSet[str]
    justification: str

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


def parse_pragmas(lines: Sequence[str]) -> Dict[int, Pragma]:
    """Map 1-based line number -> :class:`Pragma` for every pragma comment."""
    pragmas: Dict[int, Pragma] = {}
    source = "\n".join(lines) + "\n"
    if "repro:" not in source:  # cheap pre-filter before tokenizing
        return pragmas
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        if not rules:
            continue
        number = token.start[0]
        pragmas[number] = Pragma(
            line=number,
            rules=rules,
            justification=(match.group("why") or "").strip(),
        )
    return pragmas


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
