"""HTTP/JSON serving front end over the resilient linker.

``repro serve`` hosts per-tenant linker namespaces behind a pure-stdlib
HTTP server with token-bucket rate limits and classed, load-shedding
admission control, plus an authenticated admin endpoint for tenant
hot-add/remove; ``repro load`` replays seeded bursty traffic against it
— concurrently over sockets (:mod:`repro.serve.client`) or in-process
and deterministically (:mod:`repro.serve.load`) — and emits one
schema-stable report either way.  See ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionClass, AdmissionController
from repro.serve.client import run_http
from repro.serve.handlers import ServeApp, error_body, validate_error_body
from repro.serve.load import (
    OutcomeAccounting,
    generate_requests,
    queries_from_dataset,
    run_inprocess,
)
from repro.serve.report import LOAD_SCHEMA_VERSION, validate_load_document
from repro.serve.server import ReproHTTPServer, serve_forever
from repro.serve.tenants import (
    Tenant,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    build_tenant_registry,
)

__all__ = [
    "AdmissionClass",
    "AdmissionController",
    "LOAD_SCHEMA_VERSION",
    "OutcomeAccounting",
    "ReproHTTPServer",
    "ServeApp",
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
    "build_tenant_registry",
    "error_body",
    "generate_requests",
    "queries_from_dataset",
    "run_http",
    "run_inprocess",
    "serve_forever",
    "validate_error_body",
    "validate_load_document",
]
