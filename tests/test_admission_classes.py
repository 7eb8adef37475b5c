"""Per-tenant admission classes: isolation, accounting, back-compat.

The admission controller partitions in-flight work into named classes
(``gold``/``bronze``), each with its own bound — so a bronze tenant
saturating its class can never shed a gold tenant's request.  The
integration half drives a real :class:`ServeApp` with
``defer_release=True`` so slots are held across requests and the
isolation boundary is observable from status codes alone.
"""

import json

import pytest

from repro.errors import OverloadedError
from repro.obs.metrics import METRICS
from repro.serve.admission import DEFAULT_CLASS, AdmissionClass, AdmissionController
from repro.serve.handlers import ServeApp
from repro.serve.tenants import TenantSpec, build_tenant_registry
from repro.testing.faults import FakeClock


class TestAdmissionClass:
    def test_defaults(self):
        spec = AdmissionClass(name="gold")
        assert (spec.capacity, spec.queue_limit) == (8, 16)

    @pytest.mark.parametrize("name", ["", "a,b", "a=b", "a:b", "a/b"])
    def test_separator_names_rejected(self, name):
        with pytest.raises(ValueError):
            AdmissionClass(name=name)


class TestClassedAdmissionController:
    def build(self):
        return AdmissionController([
            AdmissionClass(name="gold", capacity=2, queue_limit=1),
            AdmissionClass(name="bronze", capacity=1, queue_limit=0),
        ])

    def test_empty_config_gets_default_class(self):
        admission = AdmissionController()
        assert admission.names() == [DEFAULT_CLASS]
        admission.admit(DEFAULT_CLASS)
        assert admission.pending == 1
        assert admission.snapshot()["classes"][DEFAULT_CLASS]["capacity"] == 8
        admission.release(DEFAULT_CLASS)
        assert admission.pending == 0

    def test_duplicate_class_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(
                [AdmissionClass(name="gold"), AdmissionClass(name="gold")]
            )

    def test_classes_shed_independently(self):
        admission = self.build()
        admission.admit("bronze")
        with pytest.raises(OverloadedError) as excinfo:
            admission.admit("bronze")
        assert "bronze" in str(excinfo.value)
        # gold still has 2 slots + 1 queue position
        for _ in range(3):
            admission.admit("gold")
        with pytest.raises(OverloadedError) as excinfo:
            admission.admit("gold")
        assert "gold" in str(excinfo.value)

    def test_release_returns_to_named_class(self):
        admission = self.build()
        admission.admit("bronze")
        admission.release("bronze")
        admission.admit("bronze")  # does not raise
        classes = admission.snapshot()["classes"]
        assert classes["bronze"]["pending"] == 1
        assert classes["gold"]["pending"] == 0

    def test_unknown_class_is_a_wiring_bug(self):
        admission = self.build()
        with pytest.raises(ValueError, match="unknown admission class"):
            admission.admit("platinum")
        with pytest.raises(ValueError, match="unknown admission class"):
            admission.release("platinum")

    def test_pending_sums_across_classes(self):
        admission = self.build()
        admission.admit("gold")
        admission.admit("bronze")
        assert admission.pending == 2

    def test_pending_gauge_counts_every_class(self):
        admission = AdmissionController([
            AdmissionClass(name="gold", capacity=4, queue_limit=4),
            AdmissionClass(name="bronze", capacity=1, queue_limit=1),
        ])
        for _ in range(3):
            admission.admit("gold")
        admission.admit("bronze")
        admission.release("bronze")
        # the gauge is the server's, not the last class touched
        assert METRICS.gauge_value("serve.pending") == 3.0

    def test_snapshot_aggregates_and_breaks_down(self):
        admission = self.build()
        admission.admit("gold")
        admission.admit("bronze")
        with pytest.raises(OverloadedError):
            admission.admit("bronze")
        snap = admission.snapshot()
        assert snap["capacity"] == 3
        assert snap["queue_limit"] == 1
        assert snap["pending"] == 2
        assert snap["shed"] == 1
        assert set(snap["classes"]) == {"gold", "bronze"}
        assert snap["classes"]["bronze"]["shed"] == 1
        assert snap["classes"]["gold"]["shed"] == 0
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap

    def test_explicit_default_class_is_the_unnamed_class(self):
        admission = AdmissionController(
            [AdmissionClass(DEFAULT_CLASS, capacity=1, queue_limit=0)]
        )
        assert admission.names() == [DEFAULT_CLASS]
        admission.admit(DEFAULT_CLASS)
        assert admission.snapshot()["classes"][DEFAULT_CLASS]["pending"] == 1
        with pytest.raises(OverloadedError):
            admission.admit(DEFAULT_CLASS)


class TestServeAppClassIsolation:
    @pytest.fixture
    def classed_app(self, small_world):
        clock = FakeClock()
        registry, _ = build_tenant_registry(
            small_world,
            [
                TenantSpec(name="alpha", rate=1000.0, burst=1000.0,
                           deadline_ms=None, admission_class="gold"),
                TenantSpec(name="beta", rate=1000.0, burst=1000.0,
                           deadline_ms=None, admission_class="bronze"),
            ],
            clock=clock,
        )
        admission = AdmissionController([
            AdmissionClass(name="gold", capacity=2, queue_limit=0),
            AdmissionClass(name="bronze", capacity=1, queue_limit=0),
        ])
        # defer_release: every 200 holds its slot, so saturation is
        # driven from the test body one request at a time
        return ServeApp(
            registry, admission=admission, clock=clock, defer_release=True
        )

    @staticmethod
    def link(app, tenant):
        body = json.dumps(
            {"tenant": tenant, "surface": "e", "user": 0, "now": 1.0}
        ).encode()
        return app.handle("POST", "/v1/link", body)

    def test_bronze_saturation_never_sheds_gold(self, classed_app):
        app = classed_app
        status, _ = self.link(app, "beta")
        assert status == 200
        status, doc = self.link(app, "beta")
        assert (status, doc["error"]["type"]) == (503, "shed")
        assert "bronze" in doc["error"]["message"]
        # gold tenant unaffected by the saturated bronze class
        for _ in range(2):
            status, _ = self.link(app, "alpha")
            assert status == 200
        status, doc = self.link(app, "alpha")
        assert (status, doc["error"]["type"]) == (503, "shed")
        assert "gold" in doc["error"]["message"]

    def test_per_class_shed_counts_in_healthz(self, classed_app):
        app = classed_app
        self.link(app, "beta")
        self.link(app, "beta")  # shed
        _, doc = app.handle("GET", "/healthz", None)
        classes = doc["admission"]["classes"]
        assert classes["bronze"]["shed"] == 1
        assert classes["gold"]["shed"] == 0
        tenants = {t["name"]: t for t in doc["tenants"]}
        assert tenants["alpha"]["admission_class"] == "gold"
        assert tenants["beta"]["admission_class"] == "bronze"

    def test_unknown_tenant_class_rejected_at_boot(self, small_world):
        clock = FakeClock()
        registry, _ = build_tenant_registry(
            small_world,
            [TenantSpec(name="alpha", rate=10.0, burst=10.0,
                        deadline_ms=None, admission_class="platinum")],
            clock=clock,
        )
        with pytest.raises(ValueError, match="unknown admission class"):
            ServeApp(
                registry,
                admission=AdmissionController([AdmissionClass(name="gold")]),
                clock=clock,
            )

    def test_tenant_spec_rejects_separator_names(self):
        for bad in ("a,b", "a:b", "a=b", "a/b", ""):
            with pytest.raises(ValueError):
                TenantSpec(name=bad)
        with pytest.raises(ValueError):
            TenantSpec(name="ok", admission_class="")
