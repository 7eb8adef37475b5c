"""repro.analysis — the project's AST-based invariant linter.

``repro check`` enforces, before every PR, the conventions the serving
layer relies on but cannot assert at runtime: seeded randomness and
argument-passed timestamps (**DET**), the typed error taxonomy
(**ERR**) and epoch bumps in cache-visible mutators (**CACHE**).  Every
rule reads one file's AST.  See DESIGN.md §8 for the rule table and
``docs/static-analysis.md`` for the JSON report schema.

Programmatic use::

    from repro.analysis import run_check

    report = run_check(["src"])
    assert report.exit_code() == 0, report.findings
"""

from repro.analysis.framework import (
    CheckReport,
    FileContext,
    Finding,
    Rule,
    all_rules,
    register,
    run_check,
)
from repro.analysis.pragmas import Pragma, parse_pragmas
from repro.analysis.reporters import (
    render_json,
    render_text,
    validate_check_document,
)

__all__ = [
    "CheckReport",
    "FileContext",
    "Finding",
    "Pragma",
    "Rule",
    "all_rules",
    "parse_pragmas",
    "register",
    "render_json",
    "render_text",
    "run_check",
    "validate_check_document",
]
