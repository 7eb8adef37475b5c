"""Reporters for ``repro check``: human text and schema-stable JSON.

The JSON document is schema-stable (:mod:`repro.schema`), so tooling can
diff findings across runs without guessing at the shape.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.framework import CheckReport, all_rules
from repro.schema import COUNT, STR, ListOf, const, problems

__all__ = [
    "SCHEMA_VERSION",
    "render_json",
    "render_text",
    "validate_check_document",
]

SCHEMA_VERSION = 3


# ---------------------------------------------------------------------- #
# text
# ---------------------------------------------------------------------- #
def render_text(report: CheckReport) -> str:
    """One `path:line:col: RULE-ID message` line per finding, then a
    summary line — grep-able and editor-clickable."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {finding.message}"
        )
    verdict = "FAIL" if report.exit_code() else "OK"
    summary = (
        f"{verdict}: {len(report.findings)} finding(s) "
        f"across {report.files_scanned} file(s); "
        f"{len(report.suppressed_pragma)} suppressed by pragma"
    )
    lines.append(summary)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# JSON
# ---------------------------------------------------------------------- #
def render_json(report: CheckReport, paths: Sequence[str] = ()) -> Dict[str, object]:
    """The schema-stable check document (see docs/static-analysis.md)."""
    return {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "tool": "repro check",
            "paths": list(paths),
            "files_scanned": report.files_scanned,
        },
        "rules": [{"id": rule.id, "summary": rule.summary} for rule in all_rules()],
        "findings": [finding.as_dict() for finding in report.findings],
        "suppressed": {
            "pragma": [f.as_dict() for f in report.suppressed_pragma],
        },
        "summary": {
            "findings": len(report.findings),
            "suppressed_pragma": len(report.suppressed_pragma),
            "files_scanned": report.files_scanned,
            "exit_code": report.exit_code(),
        },
    }


_FINDING = {
    "rule": STR,
    "path": STR,
    "line": COUNT,
    "col": COUNT,
    "message": STR,
}
_CHECK_DOCUMENT = {
    "meta": {
        "schema_version": const(SCHEMA_VERSION),
        "tool": STR,
        "paths": ListOf(STR),
        "files_scanned": COUNT,
    },
    "rules": ListOf({"id": STR, "summary": STR}, non_empty=True),
    "findings": ListOf(_FINDING),
    "suppressed": {"pragma": ListOf(_FINDING)},
    "summary": {
        key: COUNT
        for key in ("findings", "suppressed_pragma", "files_scanned", "exit_code")
    },
}


def dump_json(document: Dict[str, object]) -> str:
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def validate_check_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    return problems(doc, _CHECK_DOCUMENT)
