"""Admission control: bounded concurrency with load shedding.

The serving layer protects itself in two stages.  Per-tenant token
buckets (:mod:`repro.serve.tenants`) bound each tenant's *rate*; the
controllers here bound the server's *in-flight work*.  A request that
passes its bucket but finds all slots and queue positions taken is
**shed** with a typed :class:`~repro.errors.OverloadedError` (HTTP 503)
— overload degrades into fast, well-formed rejections instead of
unbounded queueing or crashes.

In-flight work is partitioned into named **admission classes** (e.g.
``gold``/``bronze``): each class is an independent
:class:`AdmissionController` with its own slot capacity and bounded
queue, and every tenant names the class it admits under
(:attr:`repro.serve.tenants.TenantSpec.admission_class`).  A bronze
tenant saturating its class can never shed a gold tenant's request —
the isolation the multi-tenant story promises under overload.
:class:`ClassedAdmissionController` owns the class map; a single-class
setup (the default) behaves exactly like the old global controller.

Controllers track occupancy as an explicit counter rather than a
semaphore so the deterministic load harness can drive them from a single
thread (admit at arrival, release at simulated completion) and so
``snapshot()`` can report exact state.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Iterable, List, Optional

from repro.errors import OverloadedError
from repro.obs.metrics import METRICS

__all__ = [
    "AdmissionClass",
    "AdmissionController",
    "ClassedAdmissionController",
    "DEFAULT_CLASS",
]

#: Name of the implicit admission class when none is configured.
DEFAULT_CLASS = "default"


class AdmissionController:
    """Counting admission gate: ``capacity`` concurrent slots plus a
    bounded wait queue of ``queue_limit`` positions.

    ``admit()`` either takes a position (slot or queue) or raises
    :class:`OverloadedError`; every successful ``admit()`` must be paired
    with exactly one ``release()``.  The live HTTP server releases in a
    ``finally``; the load harness releases when the simulated service
    completes.
    """

    def __init__(
        self,
        capacity: int = 8,
        queue_limit: int = 16,
        label: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        self._capacity = capacity
        self._queue_limit = queue_limit
        self._label = label
        self._pending = 0
        self._lock = threading.Lock()
        self.admitted = 0
        self.shed = 0
        self.peak_pending = 0

    def admit(self) -> None:
        """Take a slot/queue position or shed with a typed 503."""
        with self._lock:
            if self._pending >= self._capacity + self._queue_limit:
                self.shed += 1
                METRICS.incr("serve.shed")
                scope = f"class {self._label!r}" if self._label else "server"
                raise OverloadedError(
                    f"{scope} at capacity ({self._pending} in flight, "
                    f"limit {self._capacity}+{self._queue_limit})"
                )
            self._pending += 1
            self.admitted += 1
            if self._pending > self.peak_pending:
                self.peak_pending = self._pending
            METRICS.incr("serve.admitted")
            METRICS.gauge("serve.pending", float(self._pending))

    def release(self) -> None:
        """Return a position taken by a prior successful :meth:`admit`."""
        with self._lock:
            if self._pending <= 0:
                # Admit/release pairing is enforced by the _link finally
                # block; a miscount is a handler bug worth a loud 500.
                raise ValueError(  # repro: noqa[FLOW-002] -- code-bug invariant
                    "release() without a matching admit()"
                )
            self._pending -= 1
            METRICS.gauge("serve.pending", float(self._pending))

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def snapshot(self) -> Dict[str, object]:
        """Schema-stable occupancy state for ``/healthz``."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "queue_limit": self._queue_limit,
                "pending": self._pending,
                "peak_pending": self.peak_pending,
                "admitted": self.admitted,
                "shed": self.shed,
            }


@dataclasses.dataclass(frozen=True)
class AdmissionClass:
    """Declarative description of one admission class."""

    name: str
    #: Concurrent slots the class allows before queueing starts.
    capacity: int = 8
    #: Bounded queue positions beyond ``capacity`` before shedding.
    queue_limit: int = 16

    def __post_init__(self) -> None:
        if not self.name or any(sep in self.name for sep in ",=:/"):
            raise ValueError(f"invalid admission class name {self.name!r}")


class ClassedAdmissionController:
    """Named admission classes, each an independent bounded controller.

    ``admit(class_name)`` takes a position in that class or sheds with a
    typed 503 naming it; ``release(class_name)`` must name the same
    class.  Tenants carry their class name, so the handler layer admits
    and releases symmetrically without a lookup table.

    With a single ``default`` class this is behaviourally identical to
    the pre-classes global controller — which is what keeps the seeded
    in-process load replays byte-identical to their goldens.
    """

    def __init__(self, classes: Iterable[AdmissionClass] = ()) -> None:
        self._controllers: Dict[str, AdmissionController] = {}
        for spec in classes:
            if spec.name in self._controllers:
                raise ValueError(f"duplicate admission class {spec.name!r}")
            self._controllers[spec.name] = AdmissionController(
                capacity=spec.capacity,
                queue_limit=spec.queue_limit,
                label=spec.name,
            )
        if not self._controllers:
            self._controllers[DEFAULT_CLASS] = AdmissionController(
                label=DEFAULT_CLASS
            )

    def controller(self, admission_class: str) -> AdmissionController:
        controller = self._controllers.get(admission_class)
        if controller is None:
            # Class membership is validated when a tenant spec is accepted
            # (registry build / admin add), so an unknown class at admit
            # time is a wiring bug worth a loud 500, not a typed body.
            raise ValueError(  # repro: noqa[FLOW-002] -- code-bug invariant
                f"unknown admission class {admission_class!r} "
                f"(configured: {', '.join(self.names())})"
            )
        return controller

    def names(self) -> List[str]:
        return sorted(self._controllers)

    def admit(self, admission_class: str = DEFAULT_CLASS) -> None:
        """Take a position in ``admission_class`` or shed with a 503."""
        controller = self.controller(admission_class)
        try:
            controller.admit()
        except OverloadedError:
            METRICS.incr(f"serve.shed.{admission_class}")
            raise

    def release(self, admission_class: str = DEFAULT_CLASS) -> None:
        """Return a position taken by a prior successful :meth:`admit`."""
        # bound to a local (as in admit) so `repro check` can type the call
        # and FLOW-002 sees AdmissionController.release's ValueError
        controller = self.controller(admission_class)
        controller.release()

    @property
    def pending(self) -> int:
        return sum(c.pending for c in self._controllers.values())

    def snapshot(self) -> Dict[str, object]:
        """Schema-stable state for ``/healthz``.

        The aggregate keys (``capacity`` … ``shed``) predate admission
        classes and stay for append-only compatibility; ``classes`` holds
        the per-class breakdown.
        """
        per_class = {
            name: self._controllers[name].snapshot() for name in self.names()
        }
        aggregate: Dict[str, object] = {
            key: sum(snap[key] for snap in per_class.values())  # type: ignore[misc]
            for key in (
                "capacity", "queue_limit", "pending", "peak_pending",
                "admitted", "shed",
            )
        }
        aggregate["classes"] = per_class
        return aggregate
