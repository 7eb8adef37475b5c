"""Transport-independent request dispatch for the serving front end.

:class:`ServeApp` maps ``(method, path, body, headers)`` to
``(status, document)`` — no sockets, no threads.  The HTTP server
(:mod:`repro.serve.server`) and the deterministic load harness
(:mod:`repro.serve.load`) both drive this one dispatcher, so everything
the acceptance criteria care about (typed error bodies, shed semantics,
degradation, tenant hot-churn) is exercised identically with and
without a real network.

Error contract: every failure the app can produce is rendered by
:func:`error_body` from a typed :class:`~repro.errors.ServeError` (or a
generic :class:`~repro.errors.ReproError`, mapped to ``unavailable``).
The body schema is append-only::

    {"schema_version": 1,
     "error": {"type": "<kind>", "status": <int>, "message": "<str>",
               "retry_after_s": <float, 429 only>}}

:func:`validate_error_body` checks that shape; the concurrent load
client applies it to every rejection it receives, so "shedding stayed
typed under socket concurrency" is a gateable count, not an assumption.
"""

from __future__ import annotations

import dataclasses
import hmac
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import LinkerConfig
from repro.core.linker import LinkResult
from repro.errors import (
    BadRequestError,
    NotFoundError,
    RateLimitedError,
    ReproError,
    ServeError,
    UnauthorizedError,
)
from repro.obs.metrics import METRICS, render_metrics_document
from repro.schema import INT, REAL, STR, const, one_of, problems
from repro.serve.admission import AdmissionController
from repro.serve.tenants import Tenant, TenantRegistry, TenantSpec

__all__ = [
    "ServeApp",
    "ADMIN_SCHEMA_VERSION",
    "ERROR_KINDS",
    "ERROR_SCHEMA_VERSION",
    "LINK_SCHEMA_VERSION",
    "error_body",
    "validate_error_body",
]

#: Schema versions of the response documents (append-only policy).
ERROR_SCHEMA_VERSION = 1
LINK_SCHEMA_VERSION = 1
HEALTH_SCHEMA_VERSION = 1
ADMIN_SCHEMA_VERSION = 1

#: Every ``error.type`` discriminator the front end can emit.
ERROR_KINDS = (
    "bad_request",
    "unknown_tenant",
    "not_found",
    "unauthorized",
    "rate_limited",
    "shed",
    "unavailable",
    "internal",
)

Response = Tuple[int, Dict[str, object]]


def error_body(error: ReproError) -> Response:
    """Render any taxonomy error as a typed, schema-stable body."""
    if isinstance(error, ServeError):
        status, kind = error.status, error.kind
    else:
        # A ReproError escaping the linker's own degradation machinery is
        # a dependency problem, not a client problem.
        status, kind = 503, "unavailable"
    payload: Dict[str, object] = {
        "type": kind,
        "status": status,
        "message": str(error),
    }
    if isinstance(error, RateLimitedError):
        payload["retry_after_s"] = round(error.retry_after_s, 9)
    return status, {"schema_version": ERROR_SCHEMA_VERSION, "error": payload}


_ERROR = {"type": one_of(*ERROR_KINDS), "status": INT, "message": STR}
_ERROR_BODY = {"schema_version": const(ERROR_SCHEMA_VERSION), "error": _ERROR}
#: A 429 body also carries its back-off.
_RATE_LIMITED_BODY = {**_ERROR_BODY, "error": {**_ERROR, "retry_after_s": REAL}}


def validate_error_body(document: object) -> List[str]:
    """Schema check on one error body; returns problems (empty = valid).

    This is the per-response half of the load gate: a 4xx/5xx whose body
    does not validate here counts as ``invalid_error_bodies`` in the
    load report, and CI requires that count to be zero.
    """
    error = document.get("error") if isinstance(document, dict) else None
    limited = isinstance(error, dict) and error.get("type") == "rate_limited"
    return problems(document, _RATE_LIMITED_BODY if limited else _ERROR_BODY)


class ServeApp:
    """The application behind ``repro serve``.

    Routes
    ------
    * ``POST /v1/link`` — link one mention; body
      ``{"tenant", "surface", "user", "now"?, "top_k"?}``.
    * ``GET /healthz`` — admission, tenant, breaker and queue snapshots.
    * ``GET /metrics`` — the standard metrics document off ``repro.obs``.
    * ``GET /v1/tenants`` — hosted tenant names.
    * ``POST /admin/v1/tenants`` / ``DELETE /admin/v1/tenants/<name>`` —
      authenticated tenant hot-add / hot-remove (``admin_token``).

    ``clock`` feeds default mention timestamps and the rate/admission
    machinery; the load harness injects a virtual clock, the live CLI
    passes ``time.monotonic``.  When ``defer_release`` is true,
    ``handle()`` does *not* release the admission slot for admitted link
    requests — the caller releases at simulated completion time, which is
    how the harness models requests that occupy the server for their full
    service time.

    Tenants admit under their spec's class of ``admission`` (one
    ``default`` class when none is given).  The admin API is disabled —
    admin paths 404 — unless ``admin_token`` is set; requests must then
    carry ``Authorization: Bearer <token>``.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        admission: Optional[AdmissionController] = None,
        clock: Callable[[], float] = time.monotonic,
        defer_release: bool = False,
        admin_token: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.admission = admission or AdmissionController()
        self._clock = clock
        self._defer_release = defer_release
        self._admin_token = admin_token
        for tenant in registry.tenants():
            self._require_known_class(tenant.spec)

    def _require_known_class(self, spec: TenantSpec) -> None:
        if spec.admission_class not in self.admission.names():
            # At construction time this is a wiring error (ValueError, the
            # CLI reports it and exits); the admin add path catches it and
            # re-raises as a typed 400.
            raise ValueError(
                f"tenant {spec.name!r} names unknown admission class "
                f"{spec.admission_class!r} "
                f"(configured: {', '.join(self.admission.names())})"
            )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def handle(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Route one request; never raises for request-shaped problems.

        Any :class:`ReproError` becomes a typed error body; non-taxonomy
        exceptions propagate (the transport layer turns those into the
        ``internal`` body and the load report counts them as unhandled —
        the invariant under test is that chaos never produces any).
        """
        try:
            if method == "GET" and path == "/healthz":
                return self._healthz()
            if method == "GET" and path == "/metrics":
                return 200, render_metrics_document(METRICS, tool="repro serve")
            if method == "GET" and path == "/v1/tenants":
                return 200, {
                    "schema_version": HEALTH_SCHEMA_VERSION,
                    "tenants": self.registry.names(),
                }
            if method == "POST" and path == "/v1/link":
                return self._link(body)
            if path.startswith("/admin/"):
                return self._admin(method, path, body, headers or {})
            raise NotFoundError(f"no route for {method} {path}")
        except ReproError as error:
            status, document = error_body(error)
            METRICS.incr(f"serve.error.{document['error']['type']}")
            return status, document

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def _healthz(self) -> Response:
        return 200, {
            "schema_version": HEALTH_SCHEMA_VERSION,
            "status": "ok",
            "admission": self.admission.snapshot(),
            "tenants": self.registry.snapshot(),
        }

    def _link(self, body: Optional[bytes]) -> Response:
        request = _parse_link_request(body)
        tenant = self.registry.get(str(request["tenant"]))
        tenant.requests += 1
        if not tenant.bucket.try_acquire():
            tenant.ratelimited += 1
            METRICS.incr("serve.ratelimited")
            raise RateLimitedError(
                f"tenant {tenant.name!r} over its rate limit",
                retry_after_s=tenant.bucket.retry_after(),
            )
        admission_class = tenant.spec.admission_class
        self.admission.admit(admission_class)
        try:
            response = self._link_admitted(tenant, request)
        except Exception:
            self.admission.release(admission_class)
            raise
        if not self._defer_release:
            self.admission.release(admission_class)
        return response

    # ------------------------------------------------------------------ #
    # tenant admin (authenticated hot-add / hot-remove)
    # ------------------------------------------------------------------ #
    def _admin(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Response:
        if self._admin_token is None:
            # Disabled admin surface is indistinguishable from an unknown
            # route — no oracle for probing whether admin exists.
            raise NotFoundError(f"no route for {method} {path}")
        self._authorize(headers)
        if method == "POST" and path == "/admin/v1/tenants":
            return self._admin_add(body)
        prefix = "/admin/v1/tenants/"
        if method == "DELETE" and path.startswith(prefix) and path != prefix:
            return self._admin_remove(path[len(prefix):])
        raise NotFoundError(f"no admin route for {method} {path}")

    def _authorize(self, headers: Dict[str, str]) -> None:
        presented = headers.get("authorization", "")
        expected = f"Bearer {self._admin_token}"
        if not hmac.compare_digest(
            presented.encode("utf-8"), expected.encode("utf-8")
        ):
            METRICS.incr("serve.admin.unauthorized")
            raise UnauthorizedError("admin endpoint requires a valid bearer token")

    def _admin_add(self, body: Optional[bytes]) -> Response:
        spec = _parse_tenant_spec(body)
        try:
            self._require_known_class(spec)
        except ValueError as error:
            raise BadRequestError(str(error)) from error
        try:
            # a taken name is the registry's typed 400 and passes through;
            # what the build itself raises is a 503 naming the tenant
            tenant = self.registry.add(spec)
        except (KeyError, ValueError) as error:
            raise ServeError(
                f"tenant {spec.name!r} could not be provisioned: {error}"
            ) from error
        METRICS.incr("serve.admin.tenant_added")
        return 200, {
            "schema_version": ADMIN_SCHEMA_VERSION,
            "added": tenant.name,
            "tenant": tenant.snapshot(),
            "tenants": self.registry.names(),
        }

    def _admin_remove(self, name: str) -> Response:
        self.registry.remove(name)
        METRICS.incr("serve.admin.tenant_removed")
        return 200, {
            "schema_version": ADMIN_SCHEMA_VERSION,
            "removed": name,
            "tenants": self.registry.names(),
        }

    def _link_admitted(self, tenant: Tenant, request: Dict[str, object]) -> Response:
        user = _require_int(request, "user")
        if not 0 <= user < tenant.num_users:
            raise BadRequestError(
                f"user {user} outside universe [0, {tenant.num_users})"
            )
        surface = str(request["surface"])
        now = _as_float(request.get("now", self._clock()), "now")
        if now != now or now in (float("inf"), float("-inf")):
            raise BadRequestError("'now' must be a finite number")
        top_k = _require_int(request, "top_k", default=3)
        if top_k < 1:
            raise BadRequestError("'top_k' must be at least 1")
        result = tenant.linker.link(surface, user, now)
        return 200, _render_link(tenant, result, top_k)


def _parse_link_request(body: Optional[bytes]) -> Dict[str, object]:
    if not body:
        raise BadRequestError("empty request body")
    try:
        request = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise BadRequestError(f"body is not valid JSON: {error}") from error
    if not isinstance(request, dict):
        raise BadRequestError("body must be a JSON object")
    for field in ("tenant", "surface", "user"):
        if field not in request:
            raise BadRequestError(f"missing required field {field!r}")
    surface = request["surface"]
    if not isinstance(surface, str) or not surface.strip():
        raise BadRequestError("'surface' must be a non-empty string")
    for field in ("now", "top_k"):
        value = request.get(field, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadRequestError(f"{field!r} must be a number")
    return request


def _parse_tenant_spec(body: Optional[bytes]) -> TenantSpec:
    """Parse an admin hot-add body into a :class:`TenantSpec`.

    Accepts exactly the spec's fields; ``name`` is required, everything
    else defaults as the dataclass does.  Any shape or value problem is a
    typed 400 — the admin API never 500s on operator typos.
    """
    if not body:
        raise BadRequestError("empty request body")
    try:
        request = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise BadRequestError(f"body is not valid JSON: {error}") from error
    if not isinstance(request, dict):
        raise BadRequestError("body must be a JSON object")
    if not isinstance(request.get("name"), str) or not request["name"]:
        raise BadRequestError("'name' must be a non-empty string")
    allowed = {field.name for field in dataclasses.fields(TenantSpec)}
    unknown = sorted(set(request) - allowed)
    if unknown:
        raise BadRequestError(f"unknown tenant fields: {', '.join(unknown)}")
    numeric = {
        "rate": float,
        "burst": float,
        "deadline_ms": float,
        "failure_threshold": int,
        "recovery_timeout": float,
    }
    kwargs: Dict[str, object] = {"name": request["name"]}
    for field, cast in numeric.items():
        if field not in request:
            continue
        value = request[field]
        if field == "deadline_ms" and value is None:
            kwargs[field] = None
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadRequestError(f"{field!r} must be a number")
        kwargs[field] = (
            _require_int(request, field) if cast is int else _as_float(value, field)
        )
    if "admission_class" in request:
        if not isinstance(request["admission_class"], str):
            raise BadRequestError("'admission_class' must be a string")
        kwargs["admission_class"] = request["admission_class"]
    try:
        return TenantSpec(**kwargs)  # type: ignore[arg-type]
    except ValueError as error:
        raise BadRequestError(str(error)) from error


def _require_int(
    request: Dict[str, object], field: str, default: Optional[int] = None
) -> int:
    value = request.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{field!r} must be an integer")
    if not _as_float(value, field).is_integer():  # also rejects NaN and ±inf
        raise BadRequestError(f"{field!r} must be an integer")
    return int(value)


def _as_float(value: object, field: str) -> float:
    """``float(value)``, where an integer too large for a float is a
    typed 400 and not an ``OverflowError``."""
    try:
        return float(value)  # type: ignore[arg-type]
    except OverflowError:
        raise BadRequestError(f"{field!r} is out of range") from None


def _render_link(tenant: Tenant, result: LinkResult, top_k: int) -> Dict[str, object]:
    config: LinkerConfig = tenant.linker.config
    selected = result.top_k(top_k, threshold=config.no_interest_bound)
    best = selected[0] if selected else None
    # Degradation dominates the outcome label: a degraded reply names the
    # top entity of the β·S_r + γ·S_p ranking (top_k does not bound-filter
    # it), and the interesting fact is *why* interest went unmeasured.
    if result.degraded:
        outcome = "degraded"
    elif best is None:
        outcome = "abstained"
    else:
        outcome = "ok"
    METRICS.incr(f"serve.link.{outcome}")
    return {
        "schema_version": LINK_SCHEMA_VERSION,
        "tenant": tenant.name,
        "surface": result.surface,
        "outcome": outcome,
        "degradation": result.degradation,
        "entity": None if best is None else best.entity_id,
        "score": None if best is None else round(best.score, 9),
        "candidates": [
            {"entity": c.entity_id, "score": round(c.score, 9)} for c in selected
        ],
    }
