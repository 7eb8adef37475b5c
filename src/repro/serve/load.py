"""Deterministic load harness (``repro load``).

Replays seeded bursty traffic against the serving stack and emits the
schema-stable report of :mod:`repro.serve.report`.  Two modes share one
traffic generator (:func:`generate_requests`), one outcome accounting
(:class:`OutcomeAccounting`) and one report writer:

* **in-process** (this module): drives
  :class:`~repro.serve.handlers.ServeApp` directly under a
  :class:`~repro.testing.faults.FakeClock`.  Time only moves when the
  harness moves it — arrivals advance it along the precomputed schedule,
  injected slow-KB faults advance it mid-request — so two runs with the
  same seed produce *byte-identical* reports, which is what the CI gate
  diffs.  Service is modeled as a single queue: each 200 response
  occupies the server for (chaos-visible work + a fixed service tick),
  and the admission slot is held until that simulated completion.
* **live HTTP** (:mod:`repro.serve.client`, ``--url``): the same trace
  goes over real sockets through a concurrent open-loop client —
  arrivals are paced against the wall clock and never gated on
  responses, so overload actually overloads the server.

Traffic profiles are seeded non-homogeneous Poisson arrivals: *diurnal*
modulates the base rate sinusoidally, *spike* overlays square bursts,
*bursty* (default) composes both.  A seeded slice of requests is malformed
on purpose (bad JSON, missing fields, out-of-universe users, unknown
tenants) to prove the error path stays typed under load.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.log import get_logger
from repro.serve.handlers import ServeApp, validate_error_body
from repro.serve.report import build_load_document, zero_outcomes

if TYPE_CHECKING:  # pragma: no cover - annotation only; repro.testing stays opt-in
    from repro.testing.faults import FakeClock

__all__ = [
    "LoadProfile",
    "OutcomeAccounting",
    "PlannedRequest",
    "classify_outcome",
    "generate_requests",
    "run_inprocess",
]

_log = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class LoadProfile:
    """Shape of the synthetic arrival process."""

    name: str = "bursty"
    #: Long-run mean arrival rate (requests/second) before modulation.
    base_rate: float = 200.0
    #: Diurnal modulation amplitude in [0, 1) and period in seconds.
    diurnal_amplitude: float = 0.6
    diurnal_period_s: float = 60.0
    #: Square spikes: every ``spike_every_s`` the rate multiplies by
    #: ``spike_factor`` for ``spike_length_s``.
    spike_factor: float = 4.0
    spike_every_s: float = 20.0
    spike_length_s: float = 2.0
    #: Fraction of requests deliberately malformed / mis-addressed.
    malformed_rate: float = 0.05

    def rate_at(self, t: float) -> float:
        rate = self.base_rate
        if self.name in ("diurnal", "bursty"):
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period_s
            )
        if self.name in ("spike", "bursty"):
            if (t % self.spike_every_s) < self.spike_length_s:
                rate *= self.spike_factor
        return max(rate, 1e-6)


PROFILE_NAMES = ("diurnal", "spike", "bursty")

#: Simulated per-request service cost of the in-process replay, seconds
#: (what ``tests/golden/LOAD_inprocess_golden.json`` was recorded at).
SERVICE_TICK_S = 0.008

#: Request-level corruption modes the malformed slice cycles through.
MALFORMED_MODES = (
    "bad_json",
    "missing_surface",
    "empty_surface",
    "bad_user",
    "wrong_type",
    "unknown_tenant",
    "bad_route",
)


@dataclasses.dataclass(frozen=True)
class PlannedRequest:
    """One arrival: an instant plus a ready-to-send HTTP request."""

    at: float
    method: str
    path: str
    body: Optional[bytes]
    tenant: Optional[str]
    #: ``None`` for a well-formed link request, else the corruption mode.
    mode: Optional[str] = None


def _malformed(mode: str, tenant: str, user: int, surface: str, now: float) -> Tuple[str, Optional[bytes], Optional[str]]:
    """Build the (path, body, tenant) of one deliberately broken request."""
    base: Dict[str, object] = {
        "tenant": tenant,
        "surface": surface,
        "user": user,
        "now": now,
    }
    if mode == "bad_json":
        return "/v1/link", b'{"tenant": unterminated', tenant
    if mode == "missing_surface":
        del base["surface"]
    elif mode == "empty_surface":
        base["surface"] = "   "
    elif mode == "bad_user":
        base["user"] = -1 - user
    elif mode == "wrong_type":
        base["user"] = "seven"
    elif mode == "unknown_tenant":
        base["tenant"] = "no-such-tenant"
        tenant = None  # typed 404 happens before tenant accounting
    elif mode == "bad_route":
        return "/v1/unknown-route", json.dumps(base, sort_keys=True).encode(), None
    else:
        raise ValueError(f"unknown malformed mode {mode!r}")
    return "/v1/link", json.dumps(base, sort_keys=True).encode(), tenant


def generate_requests(
    seed: int,
    count: int,
    profile: LoadProfile,
    tenants: List[str],
    queries: List[Tuple[str, int, float]],
) -> List[PlannedRequest]:
    """The seeded request trace: arrival instants plus request payloads.

    ``queries`` are ``(surface, user, now)`` triples sampled from the
    world's own test split, so every well-formed request is answerable.
    The trace depends only on the arguments — same inputs, same bytes.
    """
    if not queries:
        raise ValueError("cannot generate load without any queries")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    planned: List[PlannedRequest] = []
    t = 0.0
    for index in range(count):
        # Non-homogeneous Poisson by rate-inversion on the current
        # rate: adequate for a piecewise-slowly-varying profile and
        # exactly reproducible, which is what the gate cares about.
        u = rng.random()
        t += -math.log(1.0 - u) / profile.rate_at(t)
        surface, user, now = queries[rng.randrange(len(queries))]
        tenant = tenants[rng.randrange(len(tenants))]
        if rng.random() < profile.malformed_rate:
            mode = MALFORMED_MODES[index % len(MALFORMED_MODES)]
            path, body, counted_tenant = _malformed(mode, tenant, user, surface, now)
            planned.append(
                PlannedRequest(
                    at=t, method="POST", path=path, body=body,
                    tenant=counted_tenant, mode=mode,
                )
            )
            continue
        body = json.dumps(
            {"tenant": tenant, "surface": surface, "user": user, "now": now},
            sort_keys=True,
        ).encode("utf-8")
        planned.append(
            PlannedRequest(at=t, method="POST", path="/v1/link", body=body, tenant=tenant)
        )
    return planned


def queries_from_dataset(dataset, limit: int = 512) -> List[Tuple[str, int, float]]:
    """``(surface, user, now)`` triples from a test split, stable order."""
    queries: List[Tuple[str, int, float]] = []
    for tweet in dataset.tweets:
        for mention in tweet.mentions:
            queries.append((mention.surface, tweet.user, tweet.timestamp))
            if len(queries) >= limit:
                return queries
    return queries


def classify_outcome(status: int, document: Dict[str, object]) -> str:
    """Map one ``(status, body)`` pair to its report outcome label."""
    if status == 200:
        outcome = document.get("outcome")
        return outcome if isinstance(outcome, str) else "ok"
    error = document.get("error")
    if isinstance(error, dict) and isinstance(error.get("type"), str):
        return str(error["type"])
    return "internal"


class OutcomeAccounting:
    """Outcome and latency counters shared by both load modes."""

    def __init__(self) -> None:
        self.outcomes = zero_outcomes()
        self.by_tenant: Dict[str, Dict[str, int]] = {}
        self.latencies_s: List[float] = []
        self.tenant_latencies_s: Dict[str, List[float]] = {}
        self.invalid_error_bodies = 0

    def record(
        self, request: PlannedRequest, outcome: str, latency_s: Optional[float]
    ) -> None:
        if outcome not in self.outcomes:
            outcome = "internal"
        self.outcomes[outcome] += 1
        if request.tenant is not None:
            per = self.by_tenant.setdefault(request.tenant, {})
            per[outcome] = per.get(outcome, 0) + 1
        if latency_s is not None:
            self.latencies_s.append(latency_s)
            if request.tenant is not None:
                self.tenant_latencies_s.setdefault(request.tenant, []).append(
                    latency_s
                )

    def check_error_body(self, document: Dict[str, object]) -> None:
        """Validate one rejection body; invalid shapes are a gated count."""
        if validate_error_body(document):
            self.invalid_error_bodies += 1


def run_inprocess(
    app: ServeApp,
    clock: FakeClock,
    planned: List[PlannedRequest],
    seed: int,
    profile: LoadProfile,
    chaos_meta: Dict[str, object],
) -> Dict[str, object]:
    """Deterministic single-queue replay against a deferring ``ServeApp``.

    The app must have been built with ``defer_release=True`` and the same
    ``clock``: each admitted request holds its admission slot until its
    simulated completion instant, so sustained overload fills the bounded
    queue and sheds — exactly the behaviour the live server shows, minus
    the nondeterminism of real threads.  Slots are released back to the
    admission class the request was admitted under.
    """
    accounting = OutcomeAccounting()
    completions: List[Tuple[float, str]] = []
    server_free_at = 0.0
    run_started = clock()
    for request in planned:
        clock.advance_to(request.at)
        now = clock()
        while completions and completions[0][0] <= now:
            _, admission_class = heapq.heappop(completions)
            app.admission.release(admission_class)
        started = clock()
        try:
            status, document = app.handle(request.method, request.path, request.body)
        except Exception:  # repro: noqa[ERR-002] -- harness boundary mirrors the HTTP server: a non-taxonomy bug is counted as 'internal', and the gate asserts the count stays zero
            _log.exception("unhandled error replaying %s", request.path)
            accounting.record(request, "internal", None)
            continue
        work = (clock() - started) + SERVICE_TICK_S
        outcome = classify_outcome(status, document)
        if status == 200:
            admission_class = app.registry.get(
                str(request.tenant)
            ).spec.admission_class
            start = max(now, server_free_at)
            finish = start + work
            server_free_at = finish
            heapq.heappush(completions, (finish, admission_class))
            accounting.record(request, outcome, latency_s=finish - now)
        else:
            accounting.check_error_body(document)
            accounting.record(request, outcome, latency_s=None)
    while completions:
        _, admission_class = heapq.heappop(completions)
        app.admission.release(admission_class)
    duration = clock() - run_started
    return build_load_document(
        mode="inprocess",
        seed=seed,
        profile=profile.name,
        chaos=chaos_meta,
        outcomes=accounting.outcomes,
        by_tenant=accounting.by_tenant,
        latencies_s=accounting.latencies_s,
        duration_s=duration,
        tenant_latencies_s=accounting.tenant_latencies_s,
        invalid_error_bodies=accounting.invalid_error_bodies,
    )
