"""Schema-stable load reports for ``repro load``.

The harness's whole point is a report CI can gate and diff: same seed,
same world, same chaos profile → byte-identical JSON.  To that end the
document contains only values derived from the injected clock and seeded
schedules (deterministic mode) and is always rendered with sorted keys
and fixed rounding.  Both load modes — the in-process deterministic
replay and the concurrent ``--url`` socket client — build their reports
through this one writer and are checked by this one validator, so the
CLI and every CI job gate on a single schema.

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

from typing import Dict, List, Optional

from repro.obs.metrics import percentile
from repro.schema import (
    BOOL, COUNT, FRACTION, INT, REAL, STR, MapOf, const, one_of, problems,
)

__all__ = [
    "LOAD_SCHEMA_VERSION",
    "OUTCOMES",
    "build_load_document",
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


def zero_outcomes() -> Dict[str, int]:
    return {outcome: 0 for outcome in OUTCOMES}


def build_load_document(
    mode: str,
    seed: int,
    profile: str,
    chaos: Dict[str, object],
    outcomes: Dict[str, int],
    by_tenant: Dict[str, Dict[str, int]],
    latencies_s: List[float],
    duration_s: float,
    tenant_latencies_s: Optional[Dict[str, List[float]]] = None,
    invalid_error_bodies: int = 0,
    client: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    total = sum(outcomes.values())
    shed = outcomes.get("shed", 0) + outcomes.get("rate_limited", 0)
    errors = sum(outcomes.get(name, 0) for name in REJECTED + UNHANDLED)
    unhandled = sum(outcomes.get(name, 0) for name in UNHANDLED)
    latency_ms = sorted(value * 1000.0 for value in latencies_s)
    tenant_latency_ms: Dict[str, Dict[str, float]] = {}
    for name, values in sorted((tenant_latencies_s or {}).items()):
        tenant_ms = sorted(value * 1000.0 for value in values)
        tenant_latency_ms[name] = {
            "p50": _quantile(tenant_ms, 50.0),
            "p95": _quantile(tenant_ms, 95.0),
            "p99": _quantile(tenant_ms, 99.0),
            "max": round(tenant_ms[-1], 3) if tenant_ms else 0.0,
        }
    return {
        "meta": {
            "schema_version": LOAD_SCHEMA_VERSION,
            "tool": "repro load",
            "mode": mode,
            "seed": seed,
            "requests": total,
            "duration_s": round(duration_s, 6),
            "profile": profile,
            "chaos": chaos,
            "client": client or {"pool": 0, "open_loop": False},
        },
        "outcomes": {name: outcomes.get(name, 0) for name in OUTCOMES},
        "latency_ms": {
            "p50": _quantile(latency_ms, 50.0),
            "p90": _quantile(latency_ms, 90.0),
            "p95": _quantile(latency_ms, 95.0),
            "p99": _quantile(latency_ms, 99.0),
            "max": round(latency_ms[-1], 3) if latency_ms else 0.0,
        },
        "tenant_latency_ms": tenant_latency_ms,
        "shed_rate": round(shed / total, 6) if total else 0.0,
        "error_rate": round(errors / total, 6) if total else 0.0,
        "unhandled": unhandled,
        "invalid_error_bodies": invalid_error_bodies,
        "by_tenant": {
            name: {key: counts.get(key, 0) for key in OUTCOMES}
            for name, counts in sorted(by_tenant.items())
        },
    }


def _quantile(sorted_ms: List[float], q: float) -> float:
    return round(percentile(sorted_ms, q), 3)


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
