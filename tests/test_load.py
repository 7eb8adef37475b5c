"""Deterministic load harness: replayability, chaos invariants, schema.

The acceptance contract under test: with breaker-tripping faults,
slow-KB latency and malformed records injected at roughly twice the
admission capacity, every request resolves to a link result, a graceful
no-interest degradation, or a typed shed/ratelimit/unavailable body —
zero unhandled errors — and two seeded replays under the injected clock
produce byte-identical reports.
"""

import json
import math

import pytest

from repro.serve.admission import AdmissionClass, AdmissionController
from repro.serve.handlers import ServeApp
from repro.serve.load import (
    MALFORMED_MODES,
    OutcomeAccounting,
    PlannedRequest,
    arrival_rate,
    generate_requests,
    queries_from_dataset,
    run_inprocess,
)
from repro.serve.report import (
    LOAD_SCHEMA_VERSION,
    OUTCOMES,
    validate_load_document,
)
from repro.serve.tenants import TenantSpec, build_tenant_registry, chaos_meta
from repro.testing.faults import FakeClock


def build_app(world, clock, chaos=False):
    """2x-overload wiring: arrivals average twice the per-tenant rate."""
    registry, context = build_tenant_registry(
        world,
        [TenantSpec(name="alpha", rate=25.0, burst=50.0, deadline_ms=50.0,
                    failure_threshold=5, recovery_timeout=5.0),
         TenantSpec(name="beta", rate=25.0, burst=50.0, deadline_ms=50.0,
                    failure_threshold=5, recovery_timeout=5.0)],
        clock=clock,
        chaos=chaos,
    )
    app = ServeApp(
        registry,
        admission=AdmissionController(
            [AdmissionClass("default", capacity=4, queue_limit=8)]
        ),
        clock=clock,
        defer_release=True,
    )
    return app, context


def run_once(world, requests=600, chaos=False, seed=17):
    clock = FakeClock()
    app, context = build_app(world, clock, chaos=chaos)
    planned = generate_requests(
        seed, requests, 100.0, ["alpha", "beta"],
        queries_from_dataset(context.test_dataset),
    )
    return run_inprocess(app, clock, planned, seed, chaos_meta(chaos))


# ---------------------------------------------------------------------- #
# traffic generation
# ---------------------------------------------------------------------- #
class TestTrafficGeneration:
    QUERIES = [("jordan", 1, 100.0), ("bulls", 2, 200.0)]

    def test_same_seed_same_trace(self):
        a = generate_requests(7, 200, 200.0, ["t"], self.QUERIES)
        b = generate_requests(7, 200, 200.0, ["t"], self.QUERIES)
        assert a == b

    def test_different_seed_different_trace(self):
        a = generate_requests(7, 200, 200.0, ["t"], self.QUERIES)
        b = generate_requests(8, 200, 200.0, ["t"], self.QUERIES)
        assert a != b

    def test_arrivals_strictly_increase(self):
        planned = generate_requests(7, 300, 200.0, ["t"], self.QUERIES)
        instants = [request.at for request in planned]
        assert instants == sorted(instants)
        assert len(set(instants)) == len(instants)

    def test_malformed_slice_cycles_all_modes(self):
        planned = generate_requests(7, 2000, 200.0, ["t"], self.QUERIES)
        modes = {r.mode for r in planned if r.mode is not None}
        assert modes == set(MALFORMED_MODES)
        malformed = sum(1 for r in planned if r.mode is not None)
        assert 60 < malformed < 140  # ~ rate 0.05 of 2000

    def test_spike_profile_raises_rate_inside_spike(self):
        # spikes: x4 for the first 2 s of every 20 s, over the diurnal wave
        diurnal = 100.0 * (1.0 + 0.6 * math.sin(2.0 * math.pi * 41.0 / 60.0))
        assert arrival_rate(41.0, 100.0) == pytest.approx(4.0 * diurnal)
        assert arrival_rate(30.0, 100.0) == pytest.approx(100.0)

    def test_diurnal_profile_modulates_sinusoidally(self):
        # amplitude 0.6, period 60 s; neither instant is inside a spike
        assert arrival_rate(15.0, 100.0) == pytest.approx(160.0)  # sin peak
        assert arrival_rate(45.0, 100.0) == pytest.approx(40.0)   # sin trough

    def test_queries_required(self):
        with pytest.raises(ValueError):
            generate_requests(7, 10, 200.0, ["t"], [])


class TestFakeClock:
    def test_advance_to_never_goes_backwards(self):
        clock = FakeClock()
        clock.advance(5.0)
        clock.advance_to(3.0)
        assert clock() == 5.0
        clock.advance_to(7.0)
        assert clock() == 7.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)


# ---------------------------------------------------------------------- #
# the acceptance gates
# ---------------------------------------------------------------------- #
class TestChaosLoad:
    @pytest.fixture(scope="class")
    def chaos_report(self, small_world):
        return run_once(small_world, chaos=True)

    def test_schema_valid(self, chaos_report):
        assert validate_load_document(chaos_report) == []

    def test_zero_unhandled_under_chaos(self, chaos_report):
        assert chaos_report["unhandled"] == 0
        assert chaos_report["outcomes"]["internal"] == 0
        assert chaos_report["outcomes"]["connection_error"] == 0

    def test_every_request_accounted_for(self, chaos_report):
        assert sum(chaos_report["outcomes"].values()) == 600

    def test_overload_sheds_and_rate_limits(self, chaos_report):
        # 2x the sustained per-tenant rate: the buckets must push back
        assert chaos_report["outcomes"]["rate_limited"] > 0
        assert chaos_report["shed_rate"] > 0.2

    def test_chaos_produces_degraded_answers_not_failures(self, chaos_report):
        assert chaos_report["outcomes"]["degraded"] > 0
        assert chaos_report["outcomes"]["ok"] > 0
        assert chaos_report["outcomes"]["unavailable"] == 0

    def test_malformed_records_stay_typed(self, chaos_report):
        assert chaos_report["outcomes"]["bad_request"] > 0
        assert chaos_report["outcomes"]["unknown_tenant"] > 0
        assert chaos_report["outcomes"]["not_found"] > 0

    def test_latency_percentiles_ordered(self, chaos_report):
        latency = chaos_report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["max"]

    def test_per_tenant_accounting_sums_to_tenant_traffic(self, chaos_report):
        by_tenant = chaos_report["by_tenant"]
        assert set(by_tenant) == {"alpha", "beta"}
        tenant_total = sum(sum(c.values()) for c in by_tenant.values())
        # requests with no tenant (bad route, unknown tenant, bad json)
        # are counted globally only
        assert tenant_total <= 600
        assert tenant_total > 400


class TestReplayDeterminism:
    def test_chaos_reports_byte_identical(self, small_world):
        first = run_once(small_world, chaos=True)
        second = run_once(small_world, chaos=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_fault_free_reports_byte_identical(self, small_world):
        first = run_once(small_world, requests=300)
        second = run_once(small_world, requests=300)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seeds_differ(self, small_world):
        first = run_once(small_world, requests=300, seed=1)
        second = run_once(small_world, requests=300, seed=2)
        assert first["outcomes"] != second["outcomes"] or (
            first["latency_ms"] != second["latency_ms"]
        )

    def test_admission_slots_fully_released_after_run(self, small_world):
        clock = FakeClock()
        app, context = build_app(small_world, clock, chaos=True)
        planned = generate_requests(
            17, 300, 100.0, ["alpha", "beta"],
            queries_from_dataset(context.test_dataset),
        )
        run_inprocess(app, clock, planned, 17, chaos_meta(True))
        assert app.admission.pending == 0


class TestSharedKnowledgebase:
    def test_tenants_share_one_ckb_that_a_replay_leaves_unwritten(
        self, small_world
    ):
        """Every tenant, boot-time or hot-added, links against the
        context's one complemented KB, and serving never writes to it."""
        clock = FakeClock()
        app, context = build_app(small_world, clock, chaos=True)
        app.registry.add(TenantSpec(name="gamma", rate=25.0, burst=50.0))
        ckb = context.ckb
        assert [t.linker.ckb is ckb for t in app.registry.tenants()] == [True] * 3

        def state():
            return (
                ckb.total_links,
                ckb.link_epoch.value,
                [ckb.version(e) for e in range(ckb.kb.num_entities)],
            )

        before = state()
        planned = generate_requests(
            17, 300, 100.0, ["alpha", "beta", "gamma"],
            queries_from_dataset(context.test_dataset),
        )
        report = run_inprocess(app, clock, planned, 17, chaos_meta(True))
        assert report["by_tenant"]["gamma"]["ok"] > 0
        assert state() == before


# ---------------------------------------------------------------------- #
# report schema
# ---------------------------------------------------------------------- #
class TestReportSchema:
    @staticmethod
    def minimal_document():
        accounting = OutcomeAccounting()
        request = PlannedRequest(at=0.0, method="POST", path="/v1/link",
                                 body=b"{}", tenant="alpha")
        accounting.record(request, "ok", 0.010)
        accounting.record(request, "ok", 0.020)
        accounting.record(request, "shed", None)
        return accounting.document(
            mode="inprocess", seed=1, chaos_meta={"enabled": False},
            duration_s=1.5,
        )

    def test_valid_document_passes(self):
        assert validate_load_document(self.minimal_document()) == []

    def test_schema_version_pinned(self):
        doc = self.minimal_document()
        assert doc["meta"]["schema_version"] == LOAD_SCHEMA_VERSION
        doc["meta"]["schema_version"] = 99
        assert any("schema_version" in p for p in validate_load_document(doc))

    def test_every_outcome_key_required(self):
        for dropped in OUTCOMES:
            doc = self.minimal_document()
            del doc["outcomes"][dropped]
            assert any(dropped in p for p in validate_load_document(doc))

    def test_sections_required(self):
        for section in ("meta", "outcomes", "latency_ms", "by_tenant"):
            doc = self.minimal_document()
            del doc[section]
            assert any(section in p for p in validate_load_document(doc))

    def test_rates_must_be_fractions(self):
        doc = self.minimal_document()
        doc["shed_rate"] = 1.5
        assert any("shed_rate" in p for p in validate_load_document(doc))

    def test_non_object_rejected(self):
        assert validate_load_document([1, 2]) != []

    def test_shed_rate_counts_both_pushback_forms(self):
        doc = self.minimal_document()
        # 1 shed of 3 requests; rate_limited included in the definition
        assert doc["shed_rate"] == pytest.approx(1 / 3, abs=1e-6)

    def test_rejections_never_contribute_latency(self):
        doc = self.minimal_document()
        assert doc["latency_ms"]["max"] == pytest.approx(20.0)

    def test_malformed_mode_list_is_stable(self):
        # the trace composition is part of the replay contract
        assert MALFORMED_MODES == (
            "bad_json", "missing_surface", "empty_surface", "bad_user",
            "wrong_type", "unknown_tenant", "bad_route",
        )
