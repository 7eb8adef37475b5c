"""Reporters for ``repro check``: human text and schema-stable JSON.

The JSON document follows the same discipline as ``BENCH_linking.json``
(:mod:`repro.bench`): a ``meta.schema_version`` field, a fixed key set,
and a :func:`validate_check_document` checker that CI runs against the
emitted file — so future tooling can diff findings across PRs without
guessing at the shape.  Bump :data:`SCHEMA_VERSION` on any breaking key
change and document it in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.framework import CheckReport, all_rules

__all__ = [
    "SCHEMA_VERSION",
    "render_json",
    "render_text",
    "validate_check_document",
]

SCHEMA_VERSION = 2

_FINDING_KEYS = ("rule", "severity", "path", "line", "col", "message")
_SUMMARY_KEYS = (
    "findings",
    "errors",
    "warnings",
    "suppressed_pragma",
    "files_scanned",
    "exit_code",
)


# ---------------------------------------------------------------------- #
# text
# ---------------------------------------------------------------------- #
def render_text(report: CheckReport, strict: bool = False) -> str:
    """One `path:line:col: RULE-ID message` line per finding, then a
    summary line — grep-able and editor-clickable."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} [{finding.severity.value}] {finding.message}"
        )
    verdict = "FAIL" if report.exit_code(strict=strict) else "OK"
    summary = (
        f"{verdict}: {len(report.findings)} finding(s) "
        f"({len(report.errors)} error, {len(report.warnings)} warning) "
        f"across {report.files_scanned} file(s); "
        f"{len(report.suppressed_pragma)} suppressed by pragma"
    )
    lines.append(summary)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# JSON
# ---------------------------------------------------------------------- #
def render_json(
    report: CheckReport, strict: bool = False, paths: Sequence[str] = ()
) -> Dict[str, object]:
    """The schema-stable check document (see docs/static-analysis.md)."""
    return {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "tool": "repro check",
            "strict": strict,
            "paths": list(paths),
            "files_scanned": report.files_scanned,
        },
        "rules": [
            {
                "id": rule.id,
                "severity": rule.severity.value,
                "summary": rule.summary,
            }
            for rule in all_rules()
        ],
        "findings": [finding.as_dict() for finding in report.findings],
        "suppressed": {
            "pragma": [f.as_dict() for f in report.suppressed_pragma],
        },
        "summary": {
            "findings": len(report.findings),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "suppressed_pragma": len(report.suppressed_pragma),
            "files_scanned": report.files_scanned,
            "exit_code": report.exit_code(strict=strict),
        },
    }


def dump_json(document: Dict[str, object]) -> str:
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def validate_check_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing or non-object section 'meta'")
    else:
        if meta.get("schema_version") != SCHEMA_VERSION:
            problems.append(
                f"meta.schema_version is {meta.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        for key in ("tool", "strict", "paths", "files_scanned"):
            if key not in meta:
                problems.append(f"meta.{key} missing")
    rules = doc.get("rules")
    if not isinstance(rules, list) or not rules:
        problems.append("'rules' must be a non-empty list")
    else:
        for index, rule in enumerate(rules):
            if not isinstance(rule, dict) or not (
                {"id", "severity", "summary"} <= set(rule)
            ):
                problems.append(f"rules[{index}] missing id/severity/summary")
            elif rule.get("severity") not in _VALID_SEVERITIES:
                problems.append(
                    f"rules[{index}].severity is {rule.get('severity')!r}, "
                    f"expected one of {list(_VALID_SEVERITIES)}"
                )
    for section in ("findings",):
        body = doc.get(section)
        if not isinstance(body, list):
            problems.append(f"'{section}' must be a list")
            continue
        problems.extend(_check_findings(body, section))
    suppressed = doc.get("suppressed")
    if not isinstance(suppressed, dict):
        problems.append("missing or non-object section 'suppressed'")
    else:
        body = suppressed.get("pragma")
        if not isinstance(body, list):
            problems.append("suppressed.pragma must be a list")
        else:
            problems.extend(_check_findings(body, "suppressed.pragma"))
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing or non-object section 'summary'")
    else:
        for key in _SUMMARY_KEYS:
            if not isinstance(summary.get(key), int):
                problems.append(f"summary.{key} missing or not an integer")
    return problems


_VALID_SEVERITIES = ("error", "warning")


def _check_findings(body: List[object], section: str) -> List[str]:
    problems: List[str] = []
    for index, finding in enumerate(body):
        if not isinstance(finding, dict):
            problems.append(f"{section}[{index}] is not an object")
            continue
        for key in _FINDING_KEYS:
            if key not in finding:
                problems.append(f"{section}[{index}].{key} missing")
        severity = finding.get("severity")
        if severity is not None and severity not in _VALID_SEVERITIES:
            problems.append(
                f"{section}[{index}].severity is {severity!r}, "
                f"expected one of {list(_VALID_SEVERITIES)}"
            )
    return problems
