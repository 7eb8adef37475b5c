"""Admission control: bounded concurrency with load shedding.

The serving layer protects itself in two stages.  Per-tenant token
buckets (:mod:`repro.serve.tenants`) bound each tenant's *rate*; the
controller here bounds the server's *in-flight work*.  A request that
passes its bucket but finds all slots and queue positions taken is
**shed** with a typed :class:`~repro.errors.OverloadedError` (HTTP 503)
— overload degrades into fast, well-formed rejections instead of
unbounded queueing or crashes.

In-flight work is partitioned into named **admission classes** (e.g.
``gold``/``bronze``), each with its own slot capacity and bounded
queue, and every tenant names the class it admits under
(:attr:`repro.serve.tenants.TenantSpec.admission_class`).  A bronze
tenant saturating its class can never shed a gold tenant's request —
the isolation the multi-tenant story promises under overload.  With no
class configured there is one ``default`` class.

Occupancy is an explicit counter rather than a semaphore so the
deterministic load harness can drive the controller from a single
thread (admit at arrival, release at simulated completion) and so
``snapshot()`` can report exact state.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Iterable, List

from repro.errors import OverloadedError
from repro.obs.metrics import METRICS

__all__ = [
    "AdmissionClass",
    "AdmissionController",
    "DEFAULT_CLASS",
]

#: Name of the implicit admission class when none is configured.
DEFAULT_CLASS = "default"

#: Fields of one class's record, in ``/healthz`` order.
_RECORD_KEYS = (
    "capacity", "queue_limit", "pending", "peak_pending", "admitted", "shed",
)


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
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")


class AdmissionController:
    """Named admission classes, each ``capacity`` concurrent slots plus a
    bounded wait queue of ``queue_limit`` positions, under one lock.

    ``admit(name)`` either takes a position in that class or raises
    :class:`OverloadedError` naming it; every successful ``admit`` must be
    paired with exactly one ``release`` of the same class.  The live HTTP
    server releases in a ``finally``; the load harness releases when the
    simulated service completes.
    """

    def __init__(self, classes: Iterable[AdmissionClass] = ()) -> None:
        self._records: Dict[str, Dict[str, int]] = {}
        for spec in list(classes) or [AdmissionClass(DEFAULT_CLASS)]:
            if spec.name in self._records:
                raise ValueError(f"duplicate admission class {spec.name!r}")
            record = self._records[spec.name] = dict.fromkeys(_RECORD_KEYS, 0)
            record.update(capacity=spec.capacity, queue_limit=spec.queue_limit)
        self._pending = 0
        self._lock = threading.Lock()

    def names(self) -> List[str]:
        return sorted(self._records)

    def _record(self, name: str) -> Dict[str, int]:
        record = self._records.get(name)
        if record is None:
            # Class membership is validated when a tenant spec is accepted
            # (ServeApp construction / admin add), so an unknown class here
            # is a wiring bug worth a loud 500, not a typed body.
            raise ValueError(
                f"unknown admission class {name!r} "
                f"(configured: {', '.join(self.names())})"
            )
        return record

    def admit(self, name: str) -> None:
        """Take a slot/queue position in class ``name`` or shed with a 503."""
        with self._lock:
            record = self._record(name)
            limit = record["capacity"] + record["queue_limit"]
            if record["pending"] >= limit:
                record["shed"] += 1
                METRICS.incr("serve.shed")
                METRICS.incr(f"serve.shed.{name}")
                raise OverloadedError(
                    f"class {name!r} at capacity ({record['pending']} in "
                    f"flight, limit {record['capacity']}+{record['queue_limit']})"
                )
            record["pending"] += 1
            record["admitted"] += 1
            record["peak_pending"] = max(record["peak_pending"], record["pending"])
            self._pending += 1
            METRICS.incr("serve.admitted")
            METRICS.gauge("serve.pending", float(self._pending))

    def release(self, name: str) -> None:
        """Return a position taken by a prior successful :meth:`admit`."""
        with self._lock:
            record = self._record(name)
            if record["pending"] <= 0:
                # Admit/release pairing is enforced by the _link finally
                # block; a miscount is a handler bug worth a loud 500.
                raise ValueError(
                    "release() without a matching admit()"
                )
            record["pending"] -= 1
            self._pending -= 1
            METRICS.gauge("serve.pending", float(self._pending))

    @property
    def pending(self) -> int:
        """In-flight requests over all classes."""
        with self._lock:
            return self._pending

    def snapshot(self) -> Dict[str, object]:
        """Schema-stable state for ``/healthz``: the per-class records
        under ``classes`` and their sums under the same keys."""
        with self._lock:
            per_class = {name: dict(self._records[name]) for name in self.names()}
        aggregate: Dict[str, object] = {
            key: sum(record[key] for record in per_class.values())
            for key in _RECORD_KEYS
        }
        aggregate["classes"] = per_class
        return aggregate
