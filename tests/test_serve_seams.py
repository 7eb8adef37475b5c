"""The serve boundary, checked by behaviour: a fault at any seam under
``ServeApp.handle`` ends as a typed body or one counted 500.

Each seam a dependency failure can enter through is swapped with
monkeypatch on a :func:`build_tenant_registry` tenant.  A builtin
exception is a bug: ``handle`` lets it propagate (its documented
contract), the admission slot comes back, and the HTTP transport turns
it into one schema-valid ``internal`` body.  A provider-side taxonomy
error degrades the link (Appendix D); any other taxonomy error is a
typed 503.  The state machine at the bottom interleaves those faults
with ordinary traffic and tenant churn.
"""

import http.client
import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.candidates import CandidateGenerator
from repro.core.recency import RecencyPropagationNetwork
from repro.errors import (
    CheckpointCorruptError,
    CircuitOpenError,
    DeadlineExceededError,
    IndexUnavailableError,
    ReproError,
)
from repro.eval.context import activity_split
from repro.kb.complemented import ComplementedKnowledgebase
from repro.obs.metrics import METRICS
from repro.schema import INT, REAL, STR, ListOf, const, nullable, one_of, problems
from repro.serve.admission import AdmissionController
from repro.serve.handlers import ERROR_KINDS, ServeApp, validate_error_body
from repro.serve.server import ReproHTTPServer
from repro.serve.tenants import TenantSpec, TokenBucket, build_tenant_registry
from repro.testing.faults import FakeClock, FaultSchedule, FlakyReachabilityProvider

BUILTINS = (ValueError, KeyError, ZeroDivisionError, IndexError, RuntimeError)
#: Provider-side taxonomy errors and the degradation each one reports.
DEGRADING = {
    IndexUnavailableError: "index_unavailable",
    DeadlineExceededError: "deadline_exceeded",
    CircuitOpenError: "circuit_open",
}
#: Taxonomy errors that are not ServeErrors (those carry their own status).
OTHER_TAXONOMY = (ReproError, CheckpointCorruptError)

#: Seam -> the method a fault is planted in; "reachability" swaps the
#: tenant's provider for a FlakyReachabilityProvider instead.
SEAM_METHODS = {
    "candidates": (CandidateGenerator, "candidates"),
    "recency": (RecencyPropagationNetwork, "current"),
    "ckb": (ComplementedKnowledgebase, "count"),
    "bucket": (TokenBucket, "try_acquire"),
    "admission": (AdmissionController, "admit"),
}
SEAMS = ("reachability", *SEAM_METHODS)
ADMIN_TOKEN = "sweep-token"
UNKNOWN_SURFACE = "zq no such surface"

_LINK = {
    "schema_version": const(1),
    "tenant": STR,
    "surface": STR,
    "outcome": one_of("ok", "abstained", "degraded"),
    "degradation": nullable(one_of(*DEGRADING.values())),
    "entity": nullable(INT),
    "score": nullable(REAL),
    "candidates": ListOf({"entity": INT, "score": REAL}),
}
_ADMIN = {"schema_version": const(1), "tenants": ListOf(STR)}


def plant(patch, tenant, seam, error):
    """Make every call through ``seam`` raise ``error``."""
    if seam == "reachability":
        flaky = FlakyReachabilityProvider(
            tenant.linker.reachability_provider,
            schedule=FaultSchedule(fail_first=10**9),
            error=error,
        )
        patch.setattr(tenant.linker, "_reachability", flaky)
        return

    def raise_planted(*args, **kwargs):
        raise error(f"planted at {seam}")

    patch.setattr(*SEAM_METHODS[seam], raise_planted)


def document_problems(status, document):
    if status == 200:
        shape = _LINK if "outcome" in document else _ADMIN
        return problems(document, shape)
    return validate_error_body(document)


@pytest.fixture(scope="module")
def served(small_world):
    clock = FakeClock()
    registry, _ = build_tenant_registry(
        small_world, [TenantSpec(name="alpha", rate=1e6, burst=1e6)], clock=clock
    )
    app = ServeApp(registry, clock=clock, admin_token=ADMIN_TOKEN)
    tenant = registry.get("alpha")
    # the first test mention that scores through the provider: only an
    # interest share lifts a score above the no-interest bound
    for tweet in activity_split(small_world).test.tweets:
        for mention in tweet.mentions:
            body = link_body("alpha", mention.surface, tweet.user, tweet.timestamp)
            if app.handle("POST", "/v1/link", body)[1]["outcome"] == "ok":
                return app, tenant, body
    raise AssertionError("no test mention links through the provider")


@pytest.fixture(scope="module")
def server(served):
    with ReproHTTPServer(served[0], port=0) as running:
        yield running


@pytest.fixture(autouse=True)
def closed_breaker(served):
    served[1].breaker.reset()


def link_body(tenant, surface, user, now):
    return json.dumps(
        {"tenant": tenant, "surface": surface, "user": user, "now": now}
    ).encode()


def error_counts():
    return {kind: METRICS.counter(f"serve.error.{kind}") for kind in ERROR_KINDS}


class TestCleanBoundary:
    def test_every_link_shape_answers_200(self, served):
        app, _, body = served
        request = json.loads(body)
        for surface, outcome in ((request["surface"], "ok"), (UNKNOWN_SURFACE, "abstained")):
            status, document = app.handle(
                "POST", "/v1/link",
                link_body("alpha", surface, request["user"], request["now"]),
            )
            assert (status, document["outcome"]) == (200, outcome)
            assert document_problems(status, document) == []
        assert app.admission.pending == 0

    @pytest.mark.parametrize("field", ["user", "now", "top_k"])
    def test_an_integer_too_large_for_a_float_is_a_typed_400(self, served, field):
        app, _, body = served
        request = {**json.loads(body), field: 10**400}
        status, document = app.handle("POST", "/v1/link", json.dumps(request).encode())
        assert (status, document["error"]["type"]) == (400, "bad_request")
        assert app.admission.pending == 0


class TestBuiltinsPropagate:
    @pytest.mark.parametrize("error", BUILTINS, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("seam", SEAMS)
    def test_handle_lets_it_propagate_and_returns_the_slot(
        self, served, monkeypatch, seam, error
    ):
        app, tenant, body = served
        plant(monkeypatch, tenant, seam, error)
        with pytest.raises(error, match=f"planted at {seam}|injected"):
            app.handle("POST", "/v1/link", body)
        assert app.admission.pending == 0

    @pytest.mark.parametrize("seam", SEAMS)
    def test_socket_gets_one_counted_internal_body_then_serves(
        self, served, server, monkeypatch, seam
    ):
        app, tenant, body = served
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            for error in BUILTINS:
                internal = METRICS.counter("serve.error.internal")
                with monkeypatch.context() as patch:
                    plant(patch, tenant, seam, error)
                    connection.request("POST", "/v1/link", body=body)
                    response = connection.getresponse()
                    document = json.loads(response.read())
                assert response.status == 500, document
                assert validate_error_body(document) == []
                assert document["error"]["type"] == "internal"
                assert error.__name__ in document["error"]["message"]
                assert METRICS.counter("serve.error.internal") == internal + 1
                assert app.admission.pending == 0
            # the same keep-alive connection, the fault gone: a 200
            connection.request("POST", "/v1/link", body=body)
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["outcome"] == "ok"
        finally:
            connection.close()


class TestTaxonomyErrors:
    @pytest.mark.parametrize("error", DEGRADING, ids=lambda e: e.__name__)
    def test_provider_failure_degrades(self, served, monkeypatch, error):
        app, tenant, body = served
        plant(monkeypatch, tenant, "reachability", error)
        status, document = app.handle("POST", "/v1/link", body)
        assert (status, document["outcome"]) == (200, "degraded")
        assert document["degradation"] == DEGRADING[error]
        assert document_problems(status, document) == []
        # a degraded reply names the top of the β·S_r + γ·S_p ranking
        request = json.loads(body)
        result = tenant.linker.link(request["surface"], request["user"], request["now"])
        assert result.degraded
        assert document["entity"] == result.best.entity_id

    def test_tripped_breaker_still_degrades(self, served, monkeypatch):
        app, tenant, body = served
        plant(monkeypatch, tenant, "reachability", IndexUnavailableError)
        threshold = tenant.spec.failure_threshold
        for _ in range(threshold):
            status, document = app.handle("POST", "/v1/link", body)
            assert (status, document["degradation"]) == (200, "index_unavailable")
        assert tenant.breaker.snapshot()["state"] == "open"
        calls = tenant.linker.reachability_provider.calls
        status, document = app.handle("POST", "/v1/link", body)
        assert (status, document["outcome"]) == (200, "degraded")
        assert document["degradation"] == "circuit_open"
        assert tenant.linker.reachability_provider.calls == calls  # not asked
        assert app.admission.pending == 0

    @pytest.mark.parametrize(
        "seam, error",
        [("reachability", error) for error in OTHER_TAXONOMY]
        + [
            (seam, error)
            for seam in SEAM_METHODS
            for error in (*OTHER_TAXONOMY, *DEGRADING)
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_any_other_is_a_typed_503(self, served, monkeypatch, seam, error):
        app, tenant, body = served
        plant(monkeypatch, tenant, seam, error)
        before = METRICS.counter("serve.error.unavailable")
        status, document = app.handle("POST", "/v1/link", body)
        assert (status, document["error"]["type"]) == (503, "unavailable")
        assert validate_error_body(document) == []
        assert METRICS.counter("serve.error.unavailable") == before + 1
        assert app.admission.pending == 0


# ---------------------------------------------------------------------- #
# the in-process serve state machine
# ---------------------------------------------------------------------- #
MALFORMED = (
    None,
    b"{broken",
    b'"a string"',
    b'{"tenant": "alpha", "user": 1}',
    b'{"tenant": "alpha", "surface": "x", "user": "seven"}',
)
HOT_TENANTS = ("gamma", "delta")


class ServeMachine(RuleBasedStateMachine):
    """Traffic, tenant churn and planted faults against one ServeApp."""

    served = None  # (app, tenant, body), set by the test below

    def __init__(self):
        super().__init__()
        self.app, self.alpha, body = self.served
        self.request = json.loads(body)
        self.patch = pytest.MonkeyPatch()
        self.planted = None
        self.hosted = {"alpha"}
        self.baseline = error_counts()
        self.returned = dict.fromkeys(ERROR_KINDS, 0)

    def send(self, method, path, body=None, headers=None):
        try:
            status, document = self.app.handle(method, path, body, headers)
        except BUILTINS:
            assert self.planted in BUILTINS, "a builtin escaped with no fault planted"
            return None
        assert document_problems(status, document) == []
        if status != 200:
            self.returned[document["error"]["type"]] += 1
        return status

    def link(self, tenant, surface=None, user=None):
        return self.send("POST", "/v1/link", link_body(
            tenant,
            self.request["surface"] if surface is None else surface,
            self.request["user"] if user is None else user,
            self.request["now"],
        ))

    @rule(tenant=st.sampled_from(("alpha", *HOT_TENANTS)),
          known=st.booleans())
    def link_valid(self, tenant, known):
        status = self.link(tenant, None if known else UNKNOWN_SURFACE)
        if self.planted is None:
            assert status == (200 if tenant in self.hosted else 404)

    @rule(body=st.sampled_from(MALFORMED))
    def link_malformed(self, body):
        status = self.send("POST", "/v1/link", body)
        if self.planted is None:  # "user" is read after the bucket seam
            assert status == 400

    @rule()
    def link_unknown_tenant(self):
        assert self.link("ghost") == 404

    @rule(user=st.sampled_from((-1, 10**6)))
    def link_user_out_of_range(self, user):
        status = self.link("alpha", user=user)
        if self.planted is None:  # the bucket and admission seams come first
            assert status == 400

    @rule(name=st.sampled_from(HOT_TENANTS))
    def admin_add(self, name):
        status = self.send(
            "POST", "/admin/v1/tenants", json.dumps({"name": name}).encode(),
            {"authorization": f"Bearer {ADMIN_TOKEN}"},
        )
        if status == 200:
            self.hosted.add(name)
        elif self.planted is None:
            assert (status, name in self.hosted) == (400, True)

    @rule(name=st.sampled_from(HOT_TENANTS))
    def admin_remove(self, name):
        status = self.send(
            "DELETE", f"/admin/v1/tenants/{name}", None,
            {"authorization": f"Bearer {ADMIN_TOKEN}"},
        )
        assert status == (200 if name in self.hosted else 404)
        self.hosted.discard(name)

    @rule(delete=st.booleans())
    def bad_admin_token(self, delete):
        method, path = ("DELETE", "/admin/v1/tenants/gamma") if delete else (
            "POST", "/admin/v1/tenants")
        assert self.send(method, path, b"{}", {"authorization": "Bearer nope"}) == 401

    @rule(seam=st.sampled_from(SEAMS),
          error=st.sampled_from((*BUILTINS, *OTHER_TAXONOMY, *DEGRADING)))
    def plant_fault(self, seam, error):
        self.clear_fault()
        plant(self.patch, self.alpha, seam, error)
        self.planted = error

    @rule()
    def clear_fault(self):
        self.patch.undo()
        self.alpha.breaker.reset()
        self.planted = None

    @invariant()
    def no_slot_leaks(self):
        assert self.app.admission.pending == 0

    @invariant()
    def error_counters_match_returned_kinds(self):
        counts = error_counts()
        assert {
            kind: counts[kind] - self.baseline[kind] for kind in ERROR_KINDS
        } == self.returned

    def teardown(self):
        self.clear_fault()
        for name in self.hosted - {"alpha"}:
            self.app.registry.remove(name)


def test_serve_state_machine(served):
    ServeMachine.served = served
    run_state_machine_as_test(
        ServeMachine,
        settings=settings(
            max_examples=40,
            stateful_step_count=25,
            deadline=None,
        ),
    )
