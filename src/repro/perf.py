"""Lightweight performance instrumentation: counters, timers, percentiles.

One process-global :data:`PERF` registry collects

* **counters** — monotone integers (cache hits/misses, BFS invocations);
  always on, one dict update per event, cheap enough for hot paths;
* **timers** — wall-clock duration samples per stage name, recorded only
  while :meth:`PerfRegistry.enabled` is true so the production path never
  pays a ``perf_counter`` call it did not ask for.

``repro bench`` enables the registry, drives a workload, and publishes
:meth:`PerfRegistry.snapshot` inside ``BENCH_linking.json``; cache hit
*rates* are derived in the snapshot from ``<name>.hit`` / ``<name>.miss``
counter pairs.

Not thread-safe: the linker and builders are single-threaded per process,
and a torn read in a diagnostics counter would not be worth a lock on the
linking hot path.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Sequence, Tuple

#: Timer samples kept per stage (a bounded window so a long stream cannot
#: grow memory without limit; percentiles describe the recent window).
DEFAULT_MAX_SAMPLES = 65_536


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``samples`` (unsorted ok).

    Returns 0.0 for an empty sample set — absent data reads as "no cost"
    in reports rather than raising mid-benchmark.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        # q is always a literal (50/95/99) in timer_stats; an
        # out-of-range q is a code bug, not a request error.
        raise ValueError(  # repro: noqa[FLOW-002] -- code-bug invariant
            f"percentile must be in [0, 100], got {q}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class PerfRegistry:
    """Process-local counters and stage timers."""

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self._max_samples = max_samples
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Deque[float]] = {}
        self._enabled = False

    # ------------------------------------------------------------------ #
    # switches
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether timers record; counters are always on."""
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every counter and timer sample (switch state is kept)."""
        self._counters.clear()
        self._timers.clear()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def incr(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name``; creates it at zero on first use."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample for stage ``name`` (ignores the
        enabled switch — callers who already measured should not lose it)."""
        samples = self._timers.get(name)
        if samples is None:
            samples = deque(maxlen=self._max_samples)
            self._timers[name] = samples
        samples.append(seconds)

    @contextmanager
    def time_block(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` when enabled; no-op cost of
        one attribute check otherwise."""
        if not self._enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def samples(self, name: str) -> List[float]:
        return list(self._timers.get(name, ()))

    def hit_rate(self, name: str) -> float:
        """Hit rate of the ``<name>.hit`` / ``<name>.miss`` counter pair
        (0.0 when the cache was never consulted)."""
        hits = self.counter(f"{name}.hit")
        misses = self.counter(f"{name}.miss")
        total = hits + misses
        return hits / total if total else 0.0

    def timer_stats(self, name: str) -> Dict[str, float]:
        """count / total / mean / p50 / p95 / p99 (seconds) for one stage."""
        samples = self._timers.get(name)
        values: Tuple[float, ...] = tuple(samples) if samples else ()
        total = sum(values)
        return {
            "count": float(len(values)),
            "total_s": total,
            "mean_s": total / len(values) if values else 0.0,
            "p50_s": percentile(values, 50.0),
            "p95_s": percentile(values, 95.0),
            "p99_s": percentile(values, 99.0),
        }

    def snapshot(self) -> Dict[str, object]:
        """Everything, JSON-ready: raw counters, derived hit rates, timer
        stats — the ``perf`` section of ``BENCH_linking.json``."""
        cache_names = sorted(
            {
                name.rsplit(".", 1)[0]
                for name in self._counters
                if name.endswith((".hit", ".miss"))
            }
        )
        return {
            "counters": dict(sorted(self._counters.items())),
            "cache_hit_rates": {
                name: round(self.hit_rate(name), 6) for name in cache_names
            },
            "timers": {
                name: {k: round(v, 9) for k, v in self.timer_stats(name).items()}
                for name in sorted(self._timers)
            },
        }


#: The process-global registry every instrumented module records into.
PERF = PerfRegistry()
