"""Concurrent open-loop load client and the shared v2 report schema.

The socket half boots a real :class:`ReproHTTPServer` whose tenant
linker is wrapped to be deliberately slow, then fires a burst through
:func:`repro.serve.client.run_http` with a worker pool: because arrivals
are not gated on responses, a tiny admission class genuinely overflows
and sheds — the property the ``serve-load`` CI job gates on.  The rest
pins the shared report plumbing both load modes ride: per-tenant
percentiles, the invalid-body counter and the single validator.
"""

import json
import time

import pytest

from repro.serve.admission import AdmissionClass, AdmissionController
from repro.serve.client import run_http
from repro.serve.handlers import ServeApp, validate_error_body
from repro.serve.load import OutcomeAccounting, PlannedRequest
from repro.serve.report import LOAD_SCHEMA_VERSION, validate_load_document
from repro.serve.server import ReproHTTPServer
from repro.serve.tenants import TenantSpec, build_tenant_registry
from repro.testing.faults import FakeClock


class TestReportSchemaV2:
    def build(self, pooled=True):
        accounting = OutcomeAccounting()
        request = PlannedRequest(at=0.0, method="POST", path="/v1/link",
                                 body=b"{}", tenant="alpha")
        accounting.record(request, "ok", 0.010)
        accounting.record(request, "ok", 0.020)
        accounting.record(request, "shed", None)
        client = {"pool": 4, "open_loop": True} if pooled else None
        return accounting.document(
            mode="http", seed=1, chaos_meta={"enabled": False},
            duration_s=1.5, client=client,
        )

    def test_valid_document_passes(self):
        assert validate_load_document(self.build()) == []
        assert LOAD_SCHEMA_VERSION == 2

    def test_tenant_percentiles_rendered(self):
        doc = self.build()
        alpha = doc["tenant_latency_ms"]["alpha"]
        assert set(alpha) == {"p50", "p95", "p99", "max"}
        assert alpha["max"] == pytest.approx(20.0)
        assert doc["latency_ms"]["p95"] >= doc["latency_ms"]["p50"]

    def test_client_metadata_rendered(self):
        assert self.build()["meta"]["client"] == {"pool": 4, "open_loop": True}
        # in-process runs default to the no-pool marker
        plain = self.build(pooled=False)
        assert plain["meta"]["client"] == {"pool": 0, "open_loop": False}

    def test_unauthorized_is_a_counted_outcome(self):
        doc = self.build()
        assert doc["outcomes"]["unauthorized"] == 0
        del doc["outcomes"]["unauthorized"]
        assert any("unauthorized" in p for p in validate_load_document(doc))

    def test_new_sections_required(self):
        for section in ("tenant_latency_ms", "invalid_error_bodies"):
            doc = self.build()
            del doc[section]
            assert any(section in p for p in validate_load_document(doc))

    def test_invalid_bodies_must_be_non_negative_int(self):
        doc = self.build()
        doc["invalid_error_bodies"] = -1
        assert validate_load_document(doc) != []
        doc["invalid_error_bodies"] = 1.5
        assert validate_load_document(doc) != []

    def test_malformed_tenant_percentiles_flagged(self):
        doc = self.build()
        doc["tenant_latency_ms"]["alpha"] = {"p50": "fast"}
        assert any("alpha" in p for p in validate_load_document(doc))


class TestValidateErrorBody:
    def test_well_formed_bodies_pass(self):
        for kind, status in (("shed", 503), ("rate_limited", 429),
                             ("unauthorized", 401)):
            body = {"schema_version": 1,
                    "error": {"type": kind, "status": status, "message": "x"}}
            if kind == "rate_limited":
                body["error"]["retry_after_s"] = 0.5
            assert validate_error_body(body) == []

    @pytest.mark.parametrize(
        "body",
        ["nope", {"schema_version": 2, "error": {}}, {"schema_version": 1},
         {"schema_version": 1, "error": {"type": "novel", "status": 500,
                                         "message": "x"}},
         {"schema_version": 1, "error": {"type": "shed", "status": "503",
                                         "message": "x"}},
         {"schema_version": 1, "error": {"type": "shed", "status": 503}},
         {"schema_version": 1, "error": {"type": "rate_limited",
                                         "status": 429, "message": "x"}}],
    )
    def test_malformed_bodies_flagged(self, body):
        assert validate_error_body(body) != []


class _SlowLinker:
    """Delegate that pins each link call to a fixed wall-clock cost, so a
    concurrent burst reliably overflows a one-slot admission class."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def link(self, surface, user, now):
        time.sleep(self._delay_s)
        return self._inner.link(surface, user, now)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOpenLoopClient:
    @pytest.fixture
    def slow_server(self, small_world):
        clock = FakeClock()
        registry, _ = build_tenant_registry(
            small_world,
            [TenantSpec(name="alpha", rate=1000.0, burst=1000.0,
                        deadline_ms=None, admission_class="tiny")],
            clock=clock,
        )
        tenant = registry.get("alpha")
        tenant.linker = _SlowLinker(tenant.linker, delay_s=0.05)
        app = ServeApp(
            registry,
            admission=AdmissionController(
                [AdmissionClass(name="tiny", capacity=1, queue_limit=0)]
            ),
            clock=clock,
        )
        with ReproHTTPServer(app, port=0) as server:
            yield server

    def test_overload_sheds_with_typed_bodies(self, slow_server):
        host, port = slow_server.address
        body = json.dumps({"tenant": "alpha", "surface": "e", "user": 0,
                           "now": 1.0}).encode()
        planned = [
            PlannedRequest(at=0.0, method="POST", path="/v1/link",
                           body=body, tenant="alpha")
            for _ in range(24)
        ]
        document = run_http(
            f"http://{host}:{port}", planned, seed=3,
            chaos_meta={"enabled": False}, pool_size=8,
        )
        assert validate_load_document(document) == []
        outcomes = document["outcomes"]
        # every arrival at t=0 with one slot and no queue: the pool makes
        # 8 requests race, so most of the burst is shed with typed 503s
        assert outcomes["shed"] > 0
        assert outcomes["shed"] + outcomes["ok"] + outcomes["degraded"] \
            + outcomes["abstained"] == 24
        assert document["unhandled"] == 0
        assert document["invalid_error_bodies"] == 0
        assert document["meta"]["client"] == {"pool": 8, "open_loop": True}
        alpha = document["tenant_latency_ms"]["alpha"]
        assert alpha["max"] >= alpha["p50"] > 0
        assert document["by_tenant"]["alpha"]["shed"] == outcomes["shed"]

    def test_pool_size_validated(self):
        with pytest.raises(ValueError, match="pool_size"):
            run_http("http://127.0.0.1:1", [], seed=1, chaos_meta={}, pool_size=0)

    def test_non_http_url_rejected(self):
        with pytest.raises(ValueError, match="http"):
            run_http("ftp://example", [], seed=1, chaos_meta={})


class TestOutcomeAccounting:
    def test_per_tenant_latency_capture(self):
        accounting = OutcomeAccounting()
        request = PlannedRequest(at=0.0, method="POST", path="/v1/link",
                                 body=b"{}", tenant="alpha")
        accounting.record(request, "ok", 0.010)
        accounting.record(request, "shed", None)
        orphan = PlannedRequest(at=0.0, method="POST", path="/x",
                                body=None, tenant=None)
        accounting.record(orphan, "not_found", None)
        assert accounting.tenant_latencies_s == {"alpha": [0.010]}
        assert accounting.by_tenant == {"alpha": {"ok": 1, "shed": 1}}
        assert accounting.outcomes["not_found"] == 1

    def test_invalid_body_counter(self):
        accounting = OutcomeAccounting()
        accounting.check_error_body({"schema_version": 1, "error": {
            "type": "shed", "status": 503, "message": "x"}})
        assert accounting.invalid_error_bodies == 0
        accounting.check_error_body({"nope": True})
        assert accounting.invalid_error_bodies == 1
