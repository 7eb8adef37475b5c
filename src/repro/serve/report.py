"""Schema-stable load reports for ``repro load``.

The harness's whole point is a report CI can gate and diff: same seed,
same world, same chaos profile → byte-identical JSON.  To that end the
document contains only values derived from the injected clock and seeded
schedules (deterministic mode) and is always rendered with sorted keys
and fixed rounding.  Both load modes — the in-process deterministic
replay and the concurrent ``--url`` socket client — record through
:class:`repro.serve.load.OutcomeAccounting`, whose ``document`` renders
this schema, and are checked by this one validator, so the CLI and every
CI job gate on a single schema.

Schema (version 2, append-only — new fields may be added, existing
fields are never renamed, retyped, or re-bucketed; v2 added
``unauthorized`` to the outcome set, ``p95``, ``tenant_latency_ms``,
``invalid_error_bodies`` and ``meta.client``):

``meta``
    ``schema_version``, ``tool``, ``mode`` (``"inprocess"``/``"http"``),
    ``seed``, ``requests``, ``duration_s``, ``profile``, ``chaos``,
    ``client`` (pool size / open-loop flag of the socket client; for the
    in-process replay: ``{"pool": 0, "open_loop": false}``).
``outcomes``
    Count per terminal outcome.  Exactly one of: ``ok``, ``degraded``,
    ``abstained``, ``rate_limited``, ``shed``, ``bad_request``,
    ``unknown_tenant``, ``not_found``, ``unauthorized``, ``unavailable``,
    ``internal``, ``connection_error``.
``latency_ms``
    ``p50``/``p90``/``p95``/``p99``/``max`` over *serviced* requests
    (nearest rank, rounded to 3 decimals).
``tenant_latency_ms``
    Per-tenant ``p50``/``p95``/``p99``/``max`` over serviced requests,
    sorted by tenant name — the per-tenant percentile section the
    ``serve-load`` CI gate validates.
``shed_rate`` / ``error_rate``
    Fractions of total requests (6 decimals).
``unhandled``
    ``internal`` + ``connection_error`` — the acceptance-gate count that
    must be zero under chaos.
``invalid_error_bodies``
    Rejections whose body failed
    :func:`repro.serve.handlers.validate_error_body` — CI requires zero,
    which is what makes "shedding stayed typed" a checked claim.
``by_tenant``
    Per-tenant outcome counts (sorted by tenant name).
"""

from __future__ import annotations

from typing import List

from repro.schema import (
    BOOL, COUNT, FRACTION, INT, REAL, STR, MapOf, const, one_of, problems,
)

__all__ = [
    "LOAD_SCHEMA_VERSION",
    "OUTCOMES",
    "validate_load_document",
]

LOAD_SCHEMA_VERSION = 2

#: Every terminal request outcome, in display order.
OUTCOMES = (
    "ok",
    "degraded",
    "abstained",
    "rate_limited",
    "shed",
    "bad_request",
    "unknown_tenant",
    "not_found",
    "unauthorized",
    "unavailable",
    "internal",
    "connection_error",
)

#: Outcomes that are error *bodies* (typed rejections) rather than answers.
REJECTED = (
    "rate_limited",
    "shed",
    "bad_request",
    "unknown_tenant",
    "not_found",
    "unauthorized",
)

#: Outcomes that violate the "never crashes" contract.
UNHANDLED = ("internal", "connection_error")

#: Percentile fields of the per-tenant latency section.
TENANT_PERCENTILES = ("p50", "p95", "p99", "max")


_OUTCOME_COUNTS = {name: COUNT for name in OUTCOMES}
_LOAD_DOCUMENT = {
    "meta": {
        "schema_version": const(LOAD_SCHEMA_VERSION),
        "tool": STR,
        "mode": one_of("inprocess", "http"),
        "seed": INT,
        "requests": COUNT,
        "duration_s": REAL,
        "profile": STR,
        "chaos": {},
        "client": {"pool": COUNT, "open_loop": BOOL},
    },
    "outcomes": _OUTCOME_COUNTS,
    "latency_ms": {field: REAL for field in ("p50", "p90", "p95", "p99", "max")},
    "tenant_latency_ms": MapOf({field: REAL for field in TENANT_PERCENTILES}),
    "shed_rate": FRACTION,
    "error_rate": FRACTION,
    "unhandled": COUNT,
    "invalid_error_bodies": COUNT,
    "by_tenant": MapOf(_OUTCOME_COUNTS),
}


def validate_load_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    return problems(doc, _LOAD_DOCUMENT)
