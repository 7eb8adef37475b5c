"""Tenant hot-add/remove over the authenticated admin endpoint.

Three layers of guarantees:

* **auth**: without a configured token every admin path is a plain 404
  (no probe oracle); with one, a missing/wrong bearer is a typed 401
  that validates against the error schema.
* **semantics**: added tenants serve immediately and show up in
  ``/v1/tenants``; removed tenants turn into typed ``unknown_tenant``
  404s; duplicates and unknown admission classes are typed 400s, found
  before anything is built; a build that fails is a typed 503.
* **isolation**: surviving tenants' responses are byte-identical to a
  no-churn run with the same seed, and over real sockets concurrent
  traffic never sees a 500 while tenants churn underneath it.
"""

import json
import threading

import pytest

import repro.serve.tenants as tenants_module
from repro.eval.context import activity_split
from repro.serve.admission import AdmissionClass, AdmissionController
from repro.serve.handlers import ServeApp, validate_error_body
from repro.serve.server import ReproHTTPServer
from repro.serve.tenants import TenantSpec, build_tenant_registry
from repro.testing.faults import FakeClock

TOKEN = "test-admin-token"
AUTH = {"authorization": f"Bearer {TOKEN}"}


def build_app(small_world, specs, admin_token=TOKEN, chaos=False, classes=()):
    clock = FakeClock()
    registry, _ = build_tenant_registry(
        small_world, specs, clock=clock, chaos=chaos
    )
    admission = AdmissionController(classes)
    return ServeApp(
        registry, admission=admission, clock=clock, admin_token=admin_token
    ), clock


def spec(name, **extra):
    return TenantSpec(
        name=name, rate=1000.0, burst=1000.0, deadline_ms=None, **extra
    )


def link_body(tenant):
    return json.dumps(
        {"tenant": tenant, "surface": "e", "user": 0, "now": 1.0}
    ).encode()


class TestAdminAuth:
    def test_admin_disabled_without_token(self, small_world):
        app, _ = build_app(small_world, [spec("alpha")], admin_token=None)
        status, doc = app.handle(
            "POST", "/admin/v1/tenants", b'{"name": "x"}', AUTH
        )
        assert (status, doc["error"]["type"]) == (404, "not_found")

    @pytest.mark.parametrize(
        "headers", [None, {}, {"authorization": "Bearer wrong"},
                    {"authorization": TOKEN}]
    )
    def test_missing_or_wrong_token_is_typed_401(self, small_world, headers):
        app, _ = build_app(small_world, [spec("alpha")])
        status, doc = app.handle(
            "POST", "/admin/v1/tenants", b'{"name": "x"}', headers
        )
        assert (status, doc["error"]["type"]) == (401, "unauthorized")
        assert validate_error_body(doc) == []
        # the body never echoes the presented credential
        assert TOKEN not in doc["error"]["message"]

    def test_unknown_admin_route_404s_with_auth(self, small_world):
        app, _ = build_app(small_world, [spec("alpha")])
        status, doc = app.handle("GET", "/admin/v1/tenants", None, AUTH)
        assert (status, doc["error"]["type"]) == (404, "not_found")


class TestHotAddRemove:
    def test_add_then_serve_then_remove(self, small_world):
        app, _ = build_app(small_world, [spec("alpha")])
        status, doc = app.handle(
            "POST", "/admin/v1/tenants",
            json.dumps({"name": "gamma", "rate": 500.0, "burst": 500.0,
                        "deadline_ms": None}).encode(),
            AUTH,
        )
        assert status == 200
        assert doc["added"] == "gamma"
        assert doc["tenants"] == ["alpha", "gamma"]
        assert doc["tenant"]["admission_class"] == "default"
        # the hot-added tenant serves immediately, no restart
        status, linked = app.handle("POST", "/v1/link", link_body("gamma"))
        assert status == 200
        assert linked["tenant"] == "gamma"
        status, doc = app.handle(
            "DELETE", "/admin/v1/tenants/gamma", None, AUTH
        )
        assert status == 200
        assert doc["removed"] == "gamma"
        assert doc["tenants"] == ["alpha"]
        status, doc = app.handle("POST", "/v1/link", link_body("gamma"))
        assert (status, doc["error"]["type"]) == (404, "unknown_tenant")

    def test_hot_added_tenant_decides_as_a_boot_time_one(self, small_world):
        """gamma, added over the admin endpoint, shares alpha's KB, graph,
        index and network: every test mention gets alpha's reply."""
        app, _ = build_app(small_world, [spec("alpha")])
        status, _ = app.handle(
            "POST", "/admin/v1/tenants",
            json.dumps({"name": "gamma", "rate": 1000.0, "burst": 1000.0,
                        "deadline_ms": None}).encode(),
            AUTH,
        )
        assert status == 200
        alpha, gamma = (app.registry.get(name).linker for name in ("alpha", "gamma"))
        assert alpha.ckb is gamma.ckb
        assert alpha.reachability_provider is gamma.reachability_provider
        replies = {"alpha": [], "gamma": []}
        for tweet in activity_split(small_world).test.tweets[:60]:
            for mention in tweet.mentions:
                for name, kept in replies.items():
                    body = json.dumps({
                        "tenant": name, "surface": mention.surface,
                        "user": tweet.user, "now": tweet.timestamp,
                    }).encode()
                    status, doc = app.handle("POST", "/v1/link", body)
                    assert doc.pop("tenant") == name
                    kept.append((status, doc))
        assert replies["gamma"] == replies["alpha"]
        assert {status for status, _ in replies["alpha"]} == {200}
        assert {doc["outcome"] for _, doc in replies["alpha"]} == {"ok", "abstained"}

    def test_duplicate_add_is_typed_400(self, small_world):
        app, _ = build_app(small_world, [spec("alpha")])
        status, doc = app.handle(
            "POST", "/admin/v1/tenants", b'{"name": "alpha"}', AUTH
        )
        assert (status, doc["error"]["type"]) == (400, "bad_request")
        assert "duplicate" in doc["error"]["message"]

    def test_duplicate_add_builds_nothing(self, small_world, monkeypatch):
        app, _ = build_app(small_world, [spec("alpha")])
        calls = []
        real = tenants_module.SocialTemporalLinker
        monkeypatch.setattr(
            tenants_module, "SocialTemporalLinker",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
        )
        status, _ = app.handle(
            "POST", "/admin/v1/tenants", b'{"name": "alpha"}', AUTH
        )
        assert status == 400
        assert calls == []

    def test_racing_duplicate_add_is_typed_400(self, small_world, monkeypatch):
        """A second add of the same name lands while the first is still
        building: the insert, not the early check, decides."""
        app, _ = build_app(small_world, [spec("alpha")])
        real = tenants_module.SocialTemporalLinker
        racer = []

        def build_linker(*args, **kwargs):
            if not racer:
                racer.append(None)
                racer[0] = app.handle(
                    "POST", "/admin/v1/tenants", b'{"name": "gamma"}', AUTH
                )
            return real(*args, **kwargs)

        monkeypatch.setattr(tenants_module, "SocialTemporalLinker", build_linker)
        status, doc = app.handle(
            "POST", "/admin/v1/tenants", b'{"name": "gamma"}', AUTH
        )
        assert racer[0][0] == 200
        assert (status, doc["error"]["type"]) == (400, "bad_request")
        assert "duplicate" in doc["error"]["message"]

    def test_failed_build_is_typed_503(self, small_world, monkeypatch):
        app, _ = build_app(small_world, [spec("alpha")])

        def broken(*args, **kwargs):
            raise ValueError("no dataset at this threshold")

        monkeypatch.setattr(tenants_module, "SocialTemporalLinker", broken)
        status, doc = app.handle(
            "POST", "/admin/v1/tenants", b'{"name": "gamma"}', AUTH
        )
        assert (status, doc["error"]["type"]) == (503, "unavailable")
        assert validate_error_body(doc) == []
        assert "gamma" in doc["error"]["message"]
        assert app.registry.names() == ["alpha"]

    def test_unknown_admission_class_is_typed_400(self, small_world):
        app, _ = build_app(
            small_world, [spec("alpha", admission_class="gold")],
            classes=[AdmissionClass(name="gold")],
        )
        status, doc = app.handle(
            "POST", "/admin/v1/tenants",
            b'{"name": "x", "admission_class": "platinum"}', AUTH,
        )
        assert (status, doc["error"]["type"]) == (400, "bad_request")
        assert "platinum" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "body",
        [None, b"", b"not json", b"[1]", b'{"rate": 5.0}', b'{"name": ""}',
         b'{"name": "x", "rate": "fast"}', b'{"name": "x", "color": "red"}',
         b'{"name": "bad,name"}',
         # out-of-range numbers: rejected by TenantSpec before provisioning
         b'{"name": "g", "rate": -1}', b'{"name": "g", "burst": 0}',
         b'{"name": "g", "deadline_ms": 0}',
         b'{"name": "g", "failure_threshold": 0}',
         b'{"name": "g", "recovery_timeout": -5}',
         b'{"name": "g", "rate": NaN}', b'{"name": "g", "burst": Infinity}',
         b'{"name": "g", "failure_threshold": NaN}',
         b'{"name": "g", "failure_threshold": Infinity}',
         *(pytest.param(b'{"name": "g", "%s": 1%s}' % (field, b"0" * 400),
                        id=f"{field.decode()}-too-large-for-a-float")
           for field in (b"rate", b"failure_threshold"))],
    )
    def test_malformed_add_bodies_are_typed_400(self, small_world, body):
        app, _ = build_app(small_world, [spec("alpha")])
        status, doc = app.handle("POST", "/admin/v1/tenants", body, AUTH)
        assert (status, doc["error"]["type"]) == (400, "bad_request")
        assert validate_error_body(doc) == []

    def test_remove_unknown_tenant_is_typed_404(self, small_world):
        app, _ = build_app(small_world, [spec("alpha")])
        status, doc = app.handle(
            "DELETE", "/admin/v1/tenants/ghost", None, AUTH
        )
        assert (status, doc["error"]["type"]) == (404, "unknown_tenant")

    def test_removed_tenant_never_disturbs_survivors(self, small_world):
        """Byte-identity: alpha's responses with gamma hot-removed
        mid-trace equal a no-churn run with the same seed."""
        specs = [spec("alpha"), spec("gamma")]

        def run(churn):
            app, clock = build_app(small_world, specs, chaos=True)
            responses = []
            for index in range(12):
                clock.advance(0.05)
                if churn and index == 6:
                    status, doc = app.handle(
                        "DELETE", "/admin/v1/tenants/gamma", None, AUTH
                    )
                    assert status == 200
                status, doc = app.handle("POST", "/v1/link", link_body("alpha"))
                responses.append((status, json.dumps(doc, sort_keys=True)))
                if index >= 6:
                    status, doc = app.handle(
                        "POST", "/v1/link", link_body("gamma")
                    )
                    expected = (404, "unknown_tenant") if churn else (200,)
                    assert (status,) == expected[:1]
                    if churn:
                        assert doc["error"]["type"] == "unknown_tenant"
            return responses

        assert run(churn=False) == run(churn=True)


class TestAdminOverSockets:
    @pytest.fixture
    def server(self, small_world):
        app, _ = build_app(small_world, [spec("alpha")])
        with ReproHTTPServer(app, port=0) as server:
            yield server

    @staticmethod
    def request(server, method, path, body=None, token=TOKEN):
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            headers = {}
            if token is not None:
                headers["Authorization"] = f"Bearer {token}"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            connection.close()

    def test_churn_under_concurrent_traffic(self, server):
        """Hot-add gamma, hammer both tenants from threads, hot-remove
        gamma, keep hammering: no 500s ever, alpha never misses."""
        status, _ = self.request(
            server, "POST", "/admin/v1/tenants",
            b'{"name": "gamma", "rate": 1000.0, "burst": 1000.0, '
            b'"deadline_ms": null}',
        )
        assert status == 200
        results = []
        lock = threading.Lock()

        def hammer(tenant, rounds=10):
            for _ in range(rounds):
                status, doc = self.request(
                    server, "POST", "/v1/link", link_body(tenant), token=None
                )
                with lock:
                    results.append((tenant, status, doc))

        def churn():
            status, _ = self.request(
                server, "DELETE", "/admin/v1/tenants/gamma"
            )
            assert status == 200

        threads = [
            threading.Thread(target=hammer, args=("alpha",)),
            threading.Thread(target=hammer, args=("gamma",)),
            threading.Thread(target=churn),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status != 500 for _, status, _ in results)
        assert all(
            status == 200 for tenant, status, _ in results if tenant == "alpha"
        )
        for tenant, status, doc in results:
            if tenant == "gamma" and status != 200:
                # in-flight requests finish; only *new* lookups 404
                assert status == 404
                assert doc["error"]["type"] == "unknown_tenant"
        status, doc = self.request(
            server, "POST", "/v1/link", link_body("gamma"), token=None
        )
        assert (status, doc["error"]["type"]) == (404, "unknown_tenant")
