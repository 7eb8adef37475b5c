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


def validate_load_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing or non-object section 'meta'")
    else:
        if meta.get("schema_version") != LOAD_SCHEMA_VERSION:
            problems.append(
                f"meta.schema_version is {meta.get('schema_version')!r}, "
                f"expected {LOAD_SCHEMA_VERSION}"
            )
        for field, kind in (
            ("tool", str),
            ("mode", str),
            ("seed", int),
            ("requests", int),
            ("profile", str),
            ("chaos", dict),
            ("client", dict),
        ):
            if not isinstance(meta.get(field), kind):
                problems.append(f"meta.{field} missing or not {kind.__name__}")
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, dict):
        problems.append("missing or non-object section 'outcomes'")
    else:
        for name in OUTCOMES:
            value = outcomes.get(name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"outcomes.{name} missing or not a non-negative int")
    latency = doc.get("latency_ms")
    if not isinstance(latency, dict):
        problems.append("missing or non-object section 'latency_ms'")
    else:
        for field in ("p50", "p90", "p95", "p99", "max"):
            if not isinstance(latency.get(field), (int, float)):
                problems.append(f"latency_ms.{field} missing or not a number")
    tenant_latency = doc.get("tenant_latency_ms")
    if not isinstance(tenant_latency, dict):
        problems.append("missing or non-object section 'tenant_latency_ms'")
    else:
        for name, values in tenant_latency.items():
            if not isinstance(values, dict):
                problems.append(f"tenant_latency_ms.{name} is not an object")
                continue
            for field in TENANT_PERCENTILES:
                if not isinstance(values.get(field), (int, float)):
                    problems.append(
                        f"tenant_latency_ms.{name}.{field} missing or not a number"
                    )
    for field in ("shed_rate", "error_rate"):
        value = doc.get(field)
        if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
            problems.append(f"{field} missing or not a fraction in [0, 1]")
    if not isinstance(doc.get("unhandled"), int):
        problems.append("unhandled missing or not an int")
    invalid = doc.get("invalid_error_bodies")
    if not isinstance(invalid, int) or isinstance(invalid, bool) or invalid < 0:
        problems.append("invalid_error_bodies missing or not a non-negative int")
    by_tenant = doc.get("by_tenant")
    if not isinstance(by_tenant, dict):
        problems.append("missing or non-object section 'by_tenant'")
    else:
        for name, counts in by_tenant.items():
            if not isinstance(counts, dict):
                problems.append(f"by_tenant.{name} is not an object")
    return problems
