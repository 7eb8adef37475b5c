"""Seeded fault injection for the online serving path.

Resilience claims are only testable if failures are *reproducible*: a
flaky test that sometimes injects zero faults proves nothing.  Every
wrapper here consults a :class:`FaultSchedule` — a deterministic decision
source driven by a seed, explicit call indices, or a fail-the-first-N
prefix — so ``tests/test_resilience.py`` can replay the exact same
failure pattern on every run.

The one wrapper is for the dependency the linker's online path can lose:
the reachability provider (errors + injected latency against a
:class:`FakeClock`).  :func:`corrupt_record` renders the dirty records
:class:`~repro.stream.ingest.TweetValidator` must dead-letter.

Production code imports it as opt-in wiring: ``repro stream
--fault-rate`` and ``repro serve --chaos`` wrap their provider in
:class:`FlakyReachabilityProvider`, and ``repro load`` and ``repro
trace`` advance a :class:`FakeClock`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.errors import IndexUnavailableError
from repro.stream.tweet import Tweet


class FakeClock:
    """A manually-advanced monotonic clock (callable like ``time.monotonic``)."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clocks only move forward")
        self.now += seconds

    def advance_to(self, instant: float) -> None:
        """Move to ``instant`` unless already past it: injected faults may
        have pushed the clock beyond the next scheduled arrival, and a
        monotonic clock must never move backwards."""
        self.now = max(self.now, instant)


class FaultSchedule:
    """Deterministic per-call fault decisions.

    A call faults when its index (0-based, per schedule instance) is in
    ``fail_calls``, is below ``fail_first``, or when the seeded RNG draws
    below ``error_rate``.  The three mechanisms compose; with none set
    the schedule never faults.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        fail_calls: Iterable[int] = (),
        fail_first: int = 0,
    ) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        self._rng = random.Random(seed)
        self._error_rate = error_rate
        self._fail_calls: Set[int] = set(fail_calls)
        self._fail_first = fail_first
        self.calls = 0
        self.faults = 0

    def should_fault(self) -> bool:
        index = self.calls
        self.calls += 1
        fault = (
            index in self._fail_calls
            or index < self._fail_first
            or (self._error_rate > 0.0 and self._rng.random() < self._error_rate)
        )
        self.faults += int(fault)
        return fault


class FlakyReachabilityProvider:
    """Wrap a reachability provider with injected errors and latency.

    ``latency`` seconds are added to ``clock`` on *every* call (faulting
    or not) when a clock is given — that is how deadline-budget tests
    simulate a slow index without real sleeping.

    ``slow_schedule`` injects *intermittent* slowness on top: when it
    fires, ``slow_latency`` seconds are added to ``clock`` (if given) and
    passed to ``sleep`` (if given).  A deterministic harness wires the
    clock; a live chaos run against a real server wires ``time.sleep`` —
    the schedule itself stays seeded either way.
    """

    def __init__(
        self,
        inner,
        schedule: Optional[FaultSchedule] = None,
        clock: Optional[FakeClock] = None,
        latency: float = 0.0,
        error: Callable[[str], Exception] = IndexUnavailableError,
        slow_schedule: Optional[FaultSchedule] = None,
        slow_latency: float = 0.0,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._inner = inner
        self._schedule = schedule or FaultSchedule()
        self._clock = clock
        self._latency = latency
        self._error = error
        self._slow_schedule = slow_schedule
        self._slow_latency = slow_latency
        self._sleep = sleep
        self.calls = 0
        self.slow_calls = 0

    def reachability(self, source: int, target: int) -> float:
        self.calls += 1
        if self._clock is not None and self._latency > 0.0:
            self._clock.advance(self._latency)
        if (
            self._slow_schedule is not None
            and self._slow_latency > 0.0
            and self._slow_schedule.should_fault()
        ):
            self.slow_calls += 1
            if self._clock is not None:
                self._clock.advance(self._slow_latency)
            if self._sleep is not None:
                self._sleep(self._slow_latency)
        if self._schedule.should_fault():
            raise self._error(f"injected reachability fault ({source}->{target})")
        return self._inner.reachability(source, target)


def corrupt_record(tweet: Tweet, mode: str) -> Dict[str, object]:
    """Render a clean tweet as a raw record broken in a chosen ``mode``.

    Modes: ``empty_text``, ``nan_timestamp``, ``negative_timestamp``,
    ``negative_id``, ``missing_field``, ``wrong_type``.
    """
    record: Dict[str, object] = {
        "tweet_id": tweet.tweet_id,
        "user": tweet.user,
        "timestamp": tweet.timestamp,
        "text": tweet.text,
        "mentions": [m.surface for m in tweet.mentions],
    }
    if mode == "empty_text":
        record["text"] = "   "
    elif mode == "nan_timestamp":
        record["timestamp"] = float("nan")
    elif mode == "negative_timestamp":
        record["timestamp"] = -abs(tweet.timestamp) - 1.0
    elif mode == "negative_id":
        record["tweet_id"] = -tweet.tweet_id - 1
    elif mode == "missing_field":
        del record["text"]
    elif mode == "wrong_type":
        record["timestamp"] = "not-a-number-🕰"
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return record


def corruption_modes() -> List[str]:
    """Every mode :func:`corrupt_record` understands (for parametrized tests)."""
    return [
        "empty_text",
        "nan_timestamp",
        "negative_timestamp",
        "negative_id",
        "missing_field",
        "wrong_type",
    ]
