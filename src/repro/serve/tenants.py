"""Per-tenant namespaces for the serving front end.

One server hosts many *tenants*: each gets its own linker (with its own
``U*_e`` cache, circuit breaker and deadline budget), token-bucket rate
limit and admission class, over a follow graph, complemented
knowledgebase, reachability index and recency-propagation network that
are built once and shared read-only (no serve path writes a link).  A
tenant that trips its breaker or exhausts its budget never affects a
neighbor — the isolation boundary is the namespace.

Everything takes an injected ``clock`` so the deterministic load harness
(:mod:`repro.serve.load`) can replay identical traffic byte-for-byte;
the live server passes ``time.monotonic``.

Chaos is on or off: when on, every tenant's reachability provider gets
seeded faults at the ``CHAOS_*`` constants below (what ``--chaos``
means).  Each tenant derives its own schedule from ``CHAOS_SEED`` and
its index, so chaos is reproducible per tenant regardless of arrival
interleaving; the slowness advances a virtual clock, or really sleeps
in live mode.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DEFAULT_CONFIG, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.core.recency import RecencyPropagationNetwork
from repro.errors import BadRequestError, UnknownTenantError
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.kb.complemented import ComplementedKnowledgebase
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "CHAOS_ERROR_RATE",
    "CHAOS_SEED",
    "CHAOS_SLOW_MS",
    "CHAOS_SLOW_RATE",
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
    "build_tenant_registry",
    "chaos_meta",
]

#: Under chaos: share of index calls that fail (what trips breakers) ...
CHAOS_ERROR_RATE = 0.05
#: ... and share that take ``CHAOS_SLOW_MS`` (what exhausts deadlines).
CHAOS_SLOW_RATE = 0.1
CHAOS_SLOW_MS = 40.0
CHAOS_SEED = 0


class TokenBucket:
    """Classic token bucket: sustained ``rate`` tokens/second, bursts up
    to ``capacity``.

    Refill is computed lazily from the injected clock, so under a virtual
    clock the bucket is exactly as deterministic as the arrival schedule.
    A small lock makes ``try_acquire`` safe under the threaded HTTP
    server; with the sequential harness it is uncontended.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._rate = rate
        self._capacity = capacity
        self._clock = clock
        self._tokens = capacity
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
        self._refilled_at = now

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def retry_after(self) -> float:
        """Seconds until one token will have refilled."""
        with self._lock:
            self._refill(self._clock())
            return max(0.0, (1.0 - self._tokens) / self._rate)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            self._refill(self._clock())
            return {
                "rate_per_s": self._rate,
                "capacity": self._capacity,
                "tokens": round(self._tokens, 9),
            }


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant namespace."""

    name: str
    #: Sustained admission rate (requests/second) of the token bucket.
    rate: float = 50.0
    #: Burst capacity of the token bucket.
    burst: float = 100.0
    #: Per-mention latency budget; ``None`` disables the deadline ladder.
    deadline_ms: Optional[float] = 50.0
    #: Breaker tuning — low recovery timeout so probes happen within a
    #: short load run rather than a production-scale 30 s.
    failure_threshold: int = 5
    recovery_timeout: float = 5.0
    #: Admission class the tenant's link requests admit under
    #: (:mod:`repro.serve.admission`); must name a configured class.
    admission_class: str = "default"

    def __post_init__(self) -> None:
        if not self.name or any(sep in self.name for sep in ",=:/"):
            raise ValueError(f"invalid tenant name {self.name!r}")
        if not self.admission_class:
            raise ValueError("admission_class must be non-empty")
        positive = {
            "rate": self.rate,
            "burst": self.burst,
            "recovery_timeout": self.recovery_timeout,
        }
        if self.deadline_ms is not None:
            positive["deadline_ms"] = self.deadline_ms
        for field, value in positive.items():
            if not 0 < value < math.inf:  # false for NaN too
                raise ValueError(f"{field} must be finite and > 0, got {value!r}")
        if not self.failure_threshold >= 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold!r}"
            )


class Tenant:
    """One fully wired tenant namespace."""

    def __init__(
        self,
        spec: TenantSpec,
        linker: SocialTemporalLinker,
        breaker: CircuitBreaker,
        bucket: TokenBucket,
        num_users: int,
    ) -> None:
        self.spec = spec
        self.linker = linker
        self.breaker = breaker
        self.bucket = bucket
        self.num_users = num_users
        # decision counters (never durations) so tenant snapshots stay
        # deterministic under the virtual clock
        self.requests = 0
        self.ratelimited = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def snapshot(self) -> Dict[str, object]:
        """Schema-stable tenant state for ``/healthz``."""
        return {
            "name": self.name,
            "admission_class": self.spec.admission_class,
            "requests": self.requests,
            "ratelimited": self.ratelimited,
            "confirmed_links": self.linker.ckb.total_links,
            "breaker": self.breaker.snapshot(),
            "bucket": self.bucket.snapshot(),
        }


class TenantRegistry:
    """Name → :class:`Tenant` lookup with a typed miss; it also wires
    every tenant it hosts.

    It holds what online inference reads (Sec. 3.2.2) and nothing of
    the offline corpus: the complemented KB, the follow graph and the
    config it is given, and the reachability index and recency
    propagation network it builds from them, all shared read-only.
    :meth:`add` wires a fresh namespace over them — its own linker,
    breaker, deadline budget, token bucket and (under chaos) its own
    seeded fault schedule — so a hot-added tenant is indistinguishable
    from a boot-time one.

    The tenant map is mutable at runtime — the admin endpoint hot-adds
    and hot-removes namespaces while the threaded HTTP server keeps
    answering — so every access goes through one lock.  Requests that
    already resolved their :class:`Tenant` keep using it after a remove
    (its linker, bucket and breaker stay functional); only *new* lookups
    see the typed 404.

    Chaos seeds derive from a monotone per-registry counter: boot tenants
    take indexes 0..n-1 in spec order and each hot-add takes the next
    index, so churn never re-deals an existing schedule.
    """

    def __init__(
        self,
        ckb: ComplementedKnowledgebase,
        graph: DiGraph,
        config: LinkerConfig,
        clock: Callable[[], float],
        chaos: bool,
        sleep: Optional[Callable[[float], None]],
    ) -> None:
        self._ckb = ckb
        self._graph = graph
        self._config = config
        self._reachability = build_reachability_index(graph, config)
        self._network = (
            RecencyPropagationNetwork(ckb.kb) if config.recency_propagation else None
        )
        self._clock = clock
        self._chaos = chaos
        self._sleep = sleep
        self._next_index = 0
        self._lock = threading.RLock()
        self._tenants: Dict[str, Tenant] = {}

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise UnknownTenantError(
                    f"tenant {name!r} is not hosted here "
                    f"(hosted: {', '.join(sorted(self._tenants))})"
                )
            return tenant

    def add(self, spec: TenantSpec) -> Tenant:
        """Wire and host one tenant; a taken name is a typed 400.

        The name is checked before the build and again at the insert,
        which stays the authority when two adds race.
        """
        with self._lock:
            self._require_free(spec.name)
            index = self._next_index
            self._next_index += 1
        tenant = self._build(spec, index)
        with self._lock:
            self._require_free(spec.name)
            self._tenants[spec.name] = tenant
        return tenant

    def _require_free(self, name: str) -> None:
        if name in self._tenants:
            raise BadRequestError(f"duplicate tenant name {name!r}")

    def _build(self, spec: TenantSpec, index: int) -> Tenant:
        provider = self._reachability
        if self._chaos:
            # Lazy import: repro.testing is opt-in wiring, never a cost of
            # the fault-free serving path.
            from repro.testing.faults import (
                FakeClock,
                FaultSchedule,
                FlakyReachabilityProvider,
            )

            provider = FlakyReachabilityProvider(
                provider,
                schedule=FaultSchedule(
                    seed=CHAOS_SEED * 1000 + index, error_rate=CHAOS_ERROR_RATE
                ),
                # a virtual clock takes the slowness; a real one cannot be
                # advanced, so live runs get it from ``sleep``
                clock=self._clock if isinstance(self._clock, FakeClock) else None,
                slow_schedule=FaultSchedule(
                    seed=CHAOS_SEED * 1000 + index + 500,
                    error_rate=CHAOS_SLOW_RATE,
                ),
                slow_latency=CHAOS_SLOW_MS / 1000.0,
                sleep=self._sleep,
            )
        breaker = CircuitBreaker(
            failure_threshold=spec.failure_threshold,
            recovery_timeout=spec.recovery_timeout,
            clock=self._clock,
        )
        linker = SocialTemporalLinker(
            self._ckb,
            self._graph,
            config=dataclasses.replace(self._config, deadline_ms=spec.deadline_ms),
            reachability=provider,
            propagation_network=self._network,
            breaker=breaker,
            clock=self._clock,
        )
        return Tenant(
            spec=spec,
            linker=linker,
            breaker=breaker,
            bucket=TokenBucket(rate=spec.rate, capacity=spec.burst, clock=self._clock),
            num_users=self._graph.num_nodes,
        )

    def remove(self, name: str) -> Tenant:
        """Hot-remove and return a tenant; unknown names get a typed 404."""
        with self._lock:
            tenant = self._tenants.pop(name, None)
            if tenant is None:
                raise UnknownTenantError(
                    f"tenant {name!r} is not hosted here "
                    f"(hosted: {', '.join(sorted(self._tenants))})"
                )
            return tenant

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenants(self) -> List[Tenant]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def snapshot(self) -> List[Dict[str, object]]:
        return [tenant.snapshot() for tenant in self.tenants()]


def build_tenant_registry(
    world,
    specs: List[TenantSpec],
    config: Optional[LinkerConfig] = None,
    clock: Callable[[], float] = time.monotonic,
    chaos: bool = False,
    sleep: Optional[Callable[[float], None]] = None,
) -> Tuple[TenantRegistry, object]:
    """Wire one tenant per spec over a world this process keeps.

    Returns ``(registry, context)``: the registry holds the context's
    complemented KB and the world's graph, not the context, which (with
    the world, its activity split and its own lazily built index and
    network) is the caller's.  ``repro serve`` does not come here: it
    drops the corpus before it builds its registry (``repro.cli``).
    """
    if not specs:
        raise ValueError("a server needs at least one tenant")
    from repro.eval.context import build_experiment

    context = build_experiment(
        world=world, complement_method="truth", config=config or DEFAULT_CONFIG
    )
    registry = TenantRegistry(
        context.ckb, world.graph, context.config, clock=clock, chaos=chaos,
        sleep=sleep,
    )
    for spec in specs:
        registry.add(spec)
    return registry, context


def chaos_meta(enabled: bool) -> Dict[str, object]:
    """The ``meta.chaos`` section of a load report."""
    return {
        "enabled": enabled,
        "error_rate": CHAOS_ERROR_RATE if enabled else 0.0,
        "slow_rate": CHAOS_SLOW_RATE if enabled else 0.0,
        "slow_ms": CHAOS_SLOW_MS if enabled else 0.0,
        "seed": CHAOS_SEED,
    }
