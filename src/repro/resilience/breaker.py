"""Circuit breaker for flaky dependencies (reachability indexes, stores).

A degraded provider that fails every call still costs a full timeout per
mention; under heavy traffic that converts one slow dependency into a
stalled stream.  The breaker converts repeated failures into *fast*
failures (:class:`~repro.errors.CircuitOpenError`), then periodically lets
a single probe call through to detect recovery — the classic
closed → open → half-open automaton.

The clock is injectable so tests (and the fault-injection harness) drive
state transitions deterministically without sleeping.
"""

from __future__ import annotations

import collections
import enum
import time
from typing import Callable, Deque, Dict, Optional, TypeVar

from repro.errors import CircuitOpenError, ReproError
from repro.log import get_logger
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE

T = TypeVar("T")

_log = get_logger(__name__)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Schema version of :meth:`CircuitBreaker.snapshot` (append-only policy:
#: new fields may be added, existing ones never renamed or retyped).
SNAPSHOT_SCHEMA_VERSION = 1

#: Trip reasons kept in the bounded snapshot history (newest last).
TRIP_HISTORY_LIMIT = 8

#: Consecutive half-open successes required to close again.
SUCCESS_THRESHOLD = 1


class CircuitBreaker:
    """Failure-counting breaker with timed recovery probes.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    recovery_timeout:
        Seconds the breaker stays open before admitting a probe call.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if recovery_timeout <= 0:
            raise ValueError("recovery_timeout must be positive")
        self._failure_threshold = failure_threshold
        self._recovery_timeout = recovery_timeout
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._successes = 0
        self._opened_at = 0.0
        self._trip_count = 0
        self._trip_reasons: Deque[str] = collections.deque(maxlen=TRIP_HISTORY_LIMIT)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> BreakerState:
        """Current state, accounting for an elapsed recovery timeout."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self._recovery_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._successes = 0
            METRICS.incr("breaker.half_opened")
            TRACE.event("breaker.half_open")
        return self._state

    @property
    def trip_count(self) -> int:
        """How many times the breaker has tripped open (for monitoring)."""
        return self._trip_count

    def snapshot(self) -> Dict[str, object]:
        """Schema-stable state dict for ``/healthz`` and trace exports.

        Under an injected clock the snapshot is fully deterministic:
        ``time_to_probe_s`` is the remaining open time before the next
        half-open probe (``None`` unless the breaker is open), and
        ``trip_reasons`` is the bounded newest-last history of why the
        breaker opened.  Tests should assert against this instead of
        parsing ``__repr__``.
        """
        state = self.state  # resolves an elapsed recovery timeout first
        time_to_probe: Optional[float] = None
        if state is BreakerState.OPEN:
            remaining = self._recovery_timeout - (self._clock() - self._opened_at)
            time_to_probe = round(max(0.0, remaining), 9)
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "state": state.value,
            "trip_count": self._trip_count,
            "consecutive_failures": self._failures,
            "half_open_successes": self._successes,
            "failure_threshold": self._failure_threshold,
            "success_threshold": SUCCESS_THRESHOLD,
            "recovery_timeout_s": self._recovery_timeout,
            "time_to_probe_s": time_to_probe,
            "trip_reasons": list(self._trip_reasons),
        }

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #
    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        self._failures = 0
        if self._state is BreakerState.HALF_OPEN:
            self._successes += 1
            if self._successes >= SUCCESS_THRESHOLD:
                self._state = BreakerState.CLOSED
                METRICS.incr("breaker.closed")
                TRACE.event("breaker.closed")
                _log.info("circuit closed after successful probe")

    def record_failure(self) -> None:
        self._successes = 0
        if self._state is BreakerState.HALF_OPEN:
            self._trip(reason="probe failed")
            return
        self._failures += 1
        if self._failures >= self._failure_threshold:
            self._trip(reason=f"{self._failures} consecutive failures")

    def call(self, fn: Callable[..., T], *args, **kwargs) -> T:
        """Run ``fn`` under the breaker, recording the outcome.

        Raises :class:`~repro.errors.CircuitOpenError` without calling
        ``fn`` while the breaker is open.
        """
        if not self.allow():
            METRICS.incr("breaker.rejected")
            raise CircuitOpenError(
                f"circuit open for another "
                f"{self._recovery_timeout - (self._clock() - self._opened_at):.3f}s"
            )
        try:
            result = fn(*args, **kwargs)
        except ReproError:
            # Only taxonomy failures count toward tripping: a provider
            # that raises TypeError is a bug to surface, not a dependency
            # outage to mask behind an open circuit.
            self.record_failure()
            raise
        self.record_success()
        return result

    def reset(self) -> None:
        """Force-close the breaker (administrative override)."""
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._successes = 0

    def _trip(self, reason: str) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._trip_count += 1
        self._trip_reasons.append(reason)
        METRICS.incr("breaker.opened")
        TRACE.event("breaker.open", reason=reason)
        _log.warning("circuit opened (%s)", reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(state={self.state.value}, trips={self._trip_count})"
