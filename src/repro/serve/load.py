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

Traffic is one seeded non-homogeneous Poisson shape, *bursty*: a
diurnal sinusoid over the base rate with square spikes on top.  A seeded
slice of requests is malformed on purpose (bad JSON, missing fields,
out-of-universe users, unknown tenants) to prove the error path stays
typed under load.
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
    "OutcomeAccounting",
    "PlannedRequest",
    "arrival_rate",
    "classify_outcome",
    "generate_requests",
    "run_inprocess",
]

_log = get_logger(__name__)


#: The arrival shape's name, as the report's ``meta.profile`` gives it.
PROFILE_NAME = "bursty"
#: Diurnal modulation amplitude in [0, 1) and period in seconds.
DIURNAL_AMPLITUDE = 0.6
DIURNAL_PERIOD_S = 60.0
#: Square spikes: every ``SPIKE_EVERY_S`` the rate multiplies by
#: ``SPIKE_FACTOR`` for ``SPIKE_LENGTH_S``.
SPIKE_FACTOR = 4.0
SPIKE_EVERY_S = 20.0
SPIKE_LENGTH_S = 2.0
#: Fraction of requests deliberately malformed / mis-addressed.
MALFORMED_RATE = 0.05


def arrival_rate(t: float, base_rate: float) -> float:
    """The bursty shape's rate at ``t`` around a long-run ``base_rate``."""
    rate = base_rate * (
        1.0 + DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / DIURNAL_PERIOD_S)
    )
    if (t % SPIKE_EVERY_S) < SPIKE_LENGTH_S:
        rate *= SPIKE_FACTOR
    return max(rate, 1e-6)


#: Distinct ``(surface, user, now)`` triples a trace samples from.
QUERY_LIMIT = 512

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
    base_rate: float,
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
        t += -math.log(1.0 - u) / arrival_rate(t, base_rate)
        surface, user, now = queries[rng.randrange(len(queries))]
        tenant = tenants[rng.randrange(len(tenants))]
        if rng.random() < MALFORMED_RATE:
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


def queries_from_dataset(dataset) -> List[Tuple[str, int, float]]:
    """``(surface, user, now)`` triples from a test split, stable order."""
    queries: List[Tuple[str, int, float]] = []
    for tweet in dataset.tweets:
        for mention in tweet.mentions:
            queries.append((mention.surface, tweet.user, tweet.timestamp))
            if len(queries) >= QUERY_LIMIT:
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

    def document(
        self,
        mode: str,
        seed: int,
        chaos_meta: Dict[str, object],
        duration_s: float,
        client: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """The load report of everything recorded."""
        return build_load_document(
            mode=mode,
            seed=seed,
            profile=PROFILE_NAME,
            chaos=chaos_meta,
            outcomes=self.outcomes,
            by_tenant=self.by_tenant,
            latencies_s=self.latencies_s,
            duration_s=duration_s,
            tenant_latencies_s=self.tenant_latencies_s,
            invalid_error_bodies=self.invalid_error_bodies,
            client=client,
        )


def run_inprocess(
    app: ServeApp,
    clock: FakeClock,
    planned: List[PlannedRequest],
    seed: int,
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
        except Exception:
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
    return accounting.document("inprocess", seed, chaos_meta, clock() - run_started)
