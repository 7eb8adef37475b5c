"""Per-tenant namespaces for the serving front end.

One server hosts many *tenants*: each gets its own complemented
knowledgebase, its own linker (with its own circuit breaker and deadline
budget) and its own token-bucket rate limit, over a world, reachability
index and recency-propagation network that are shared read-only.  A
tenant that confirms links, trips its breaker, or exhausts its budget
never affects a neighbor — the isolation boundary is the namespace.

Everything takes an injected ``clock`` so the deterministic load harness
(:mod:`repro.serve.load`) can replay identical traffic byte-for-byte;
the live server passes ``time.monotonic``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DEFAULT_CONFIG, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.errors import UnknownTenantError
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "ChaosConfig",
    "Tenant",
    "TenantProvisioner",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
    "build_tenant_registry",
]


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

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will have refilled."""
        with self._lock:
            self._refill(self._clock())
            missing = amount - self._tokens
            return max(0.0, missing / self._rate)

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


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault wiring applied to every tenant's reachability provider.

    ``error_rate`` injects transient index failures (what trips the
    breaker); ``slow_rate``/``slow_ms`` makes a fraction of index calls
    slow (what exhausts deadline budgets).  In deterministic mode the
    slowness advances the injected clock; in live mode it really sleeps.
    Each tenant derives its own schedule from ``seed`` and its index, so
    chaos is reproducible per-tenant regardless of arrival interleaving.
    """

    error_rate: float = 0.0
    slow_rate: float = 0.0
    slow_ms: float = 0.0
    seed: int = 0

    @property
    def enabled(self) -> bool:
        return self.error_rate > 0.0 or (self.slow_rate > 0.0 and self.slow_ms > 0.0)


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
    """Name → :class:`Tenant` lookup with a typed miss.

    The tenant map is mutable at runtime — the admin endpoint hot-adds
    and hot-removes namespaces while the threaded HTTP server keeps
    answering — so every access goes through one lock.  Requests that
    already resolved their :class:`Tenant` keep using it after a remove
    (its linker, bucket and breaker stay functional); only *new* lookups
    see the typed 404.
    """

    def __init__(self, tenants: List[Tenant]) -> None:
        if not tenants:
            raise ValueError("a server needs at least one tenant")
        self._lock = threading.RLock()
        self._tenants: Dict[str, Tenant] = {}
        #: Optional :class:`TenantProvisioner` (set by
        #: :func:`build_tenant_registry`) that the admin endpoint uses to
        #: wire brand-new namespaces over the shared world.
        self.provisioner: Optional["TenantProvisioner"] = None
        for tenant in tenants:
            if tenant.name in self._tenants:
                raise ValueError(f"duplicate tenant name {tenant.name!r}")
            self._tenants[tenant.name] = tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise UnknownTenantError(
                    f"tenant {name!r} is not hosted here "
                    f"(hosted: {', '.join(sorted(self._tenants))})"
                )
            return tenant

    def add(self, tenant: Tenant) -> None:
        """Hot-add a tenant; duplicate names are a caller error."""
        with self._lock:
            if tenant.name in self._tenants:
                raise ValueError(f"duplicate tenant name {tenant.name!r}")
            self._tenants[tenant.name] = tenant

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


class TenantProvisioner:
    """Builds fully wired tenant namespaces over one shared world.

    The heavy read-side structures (reachability provider, recency
    propagation network, dataset catalog) are captured once; every
    :meth:`create` call wires a fresh namespace — its own complemented
    KB, breaker, deadline budget, token bucket and (under chaos) its own
    seeded fault schedule.  The admin endpoint uses the same provisioner
    at runtime, so a hot-added tenant is indistinguishable from a
    boot-time one.

    Chaos seeds derive from a monotone per-provisioner counter: boot
    tenants take indexes 0..n-1 in spec order (exactly the pre-refactor
    assignment, keeping seeded replays byte-identical) and each hot-add
    takes the next index, so churn never re-deals an existing schedule.
    """

    def __init__(
        self,
        world,
        context,
        clock: Callable[[], float],
        chaos: Optional[ChaosConfig],
        sleep: Optional[Callable[[float], None]],
        threshold: int,
    ) -> None:
        self._world = world
        self._context = context
        self._config: LinkerConfig = context.config
        self._clock = clock
        self._chaos = chaos
        self._sleep = sleep
        self._threshold = threshold
        self._propagation = (
            context.propagation_network if self._config.recency_propagation else None
        )
        self._next_index = 0
        self._lock = threading.Lock()

    def create(self, spec: TenantSpec) -> Tenant:
        """Wire one tenant namespace from its spec."""
        with self._lock:
            index = self._next_index
            self._next_index += 1
        from repro.eval.context import complement_knowledgebase

        provider = self._context.reachability_index
        if self._chaos is not None and self._chaos.enabled:
            # Lazy import: repro.testing is opt-in wiring, never a cost of
            # the fault-free serving path.
            from repro.testing.faults import FaultSchedule, FlakyReachabilityProvider

            clock_shim = _AdvanceShim(self._clock, self._sleep)
            provider = FlakyReachabilityProvider(
                provider,
                schedule=FaultSchedule(
                    seed=self._chaos.seed * 1000 + index,
                    error_rate=self._chaos.error_rate,
                ),
                clock=clock_shim if clock_shim.advances else None,
                slow_schedule=FaultSchedule(
                    seed=self._chaos.seed * 1000 + index + 500,
                    error_rate=self._chaos.slow_rate,
                ),
                slow_latency=self._chaos.slow_ms / 1000.0,
                sleep=self._sleep,
            )
        tenant_ckb = complement_knowledgebase(
            self._world,
            self._context.catalog.dataset(self._threshold),
            method="truth",
        )
        tenant_config = dataclasses.replace(
            self._config, deadline_ms=spec.deadline_ms
        )
        breaker = CircuitBreaker(
            failure_threshold=spec.failure_threshold,
            recovery_timeout=spec.recovery_timeout,
            clock=self._clock,
        )
        linker = SocialTemporalLinker(
            tenant_ckb,
            self._world.graph,
            config=tenant_config,
            reachability=provider,
            propagation_network=self._propagation,
            breaker=breaker,
            clock=self._clock,
        )
        bucket = TokenBucket(
            rate=spec.rate, capacity=spec.burst, clock=self._clock
        )
        return Tenant(
            spec=spec,
            linker=linker,
            breaker=breaker,
            bucket=bucket,
            num_users=self._world.num_users,
        )


def build_tenant_registry(
    world,
    specs: List[TenantSpec],
    config: Optional[LinkerConfig] = None,
    clock: Callable[[], float] = time.monotonic,
    chaos: Optional[ChaosConfig] = None,
    sleep: Optional[Callable[[float], None]] = None,
    threshold: int = 10,
) -> Tuple[TenantRegistry, object]:
    """Wire one tenant per spec over a shared world.

    Returns ``(registry, context)``; the context is handed back so
    callers can reuse the catalog (e.g. the load harness samples request
    surfaces from the same test split the tenants were built from).  The
    registry carries the :class:`TenantProvisioner` it was built with, so
    the admin endpoint can hot-add namespaces over the same shared world.
    """
    from repro.eval.context import build_experiment

    context = build_experiment(
        world=world,
        threshold=threshold,
        complement_method="truth",
        config=config or DEFAULT_CONFIG,
    )
    provisioner = TenantProvisioner(
        world,
        context,
        clock=clock,
        chaos=chaos,
        sleep=sleep,
        threshold=threshold,
    )
    registry = TenantRegistry([provisioner.create(spec) for spec in specs])
    registry.provisioner = provisioner
    return registry, context


class _AdvanceShim:
    """Adapt an arbitrary clock to the ``FakeClock.advance`` protocol.

    The fault wrappers advance a :class:`~repro.testing.faults.FakeClock`
    to model latency.  A real clock cannot be advanced — in live mode the
    slowness comes from ``sleep`` instead — so the shim only forwards
    ``advance`` when the underlying clock supports it.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sleep: Optional[Callable[[float], None]],
    ) -> None:
        self._clock = clock
        self._sleep = sleep
        self.advances = hasattr(clock, "advance")

    def __call__(self) -> float:
        return self._clock()

    def advance(self, seconds: float) -> None:
        if self.advances:
            self._clock.advance(seconds)  # type: ignore[attr-defined]
