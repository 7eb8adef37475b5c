"""The one instrumentation registry: counters, gauges, fixed-bucket
histograms and stage timers.

The registry answers "what did the system *do*" — requests linked,
candidates per mention, cache hits and misses, degradations by reason,
dead letters by cause, breaker transitions, best-score distributions —
and, while its timing switch is on, "where did the wall-clock go".  The
design constraints, in order:

1. **Determinism** — counters, gauges and histograms encode a
   *decision*, never a duration, and durations are recorded only while
   :attr:`MetricsRegistry.timing` is set (``--metrics-out`` runs), so
   identical seeded runs produce identical snapshots.
2. **Mergeability** — :meth:`MetricsRegistry.merge` folds another
   registry's snapshot in by summing counters and histogram buckets
   (gauges take the max, the only order-free combiner for level
   readings); ``repro trace`` combines its per-scenario registries
   this way.  Timer percentiles do not combine, so timers stay local.
3. **Fixed buckets** — histogram boundaries are declared at first
   ``observe`` and never inferred from data, so two registries'
   histograms are always bucket-compatible and snapshots diff cleanly
   across runs.

The process-global :data:`METRICS` takes always-on dictionary updates,
cheap enough for the linking hot path.  It holds no lock: ``repro serve``
runs ``link()`` on ``ThreadingHTTPServer`` handler threads, so under
threads an increment may be lost (a read-modify-write on a dict slot),
but nothing raises and no structure is left inconsistent — a histogram's
count is derived from its buckets and a snapshot copies each container
in one step.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.schema import COUNT, INT, REAL, STR, ListOf, MapOf, const, problems

__all__ = [
    "COUNT_BOUNDARIES",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "SCORE_BOUNDARIES",
    "percentile",
    "render_metrics_document",
    "validate_metrics_document",
]

#: Schema version of the ``--metrics-out`` document (append-only policy,
#: see docs/observability.md).
SCHEMA_VERSION = 2

#: Candidate-set sizes and similar small cardinalities.
COUNT_BOUNDARIES: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 50.0)

#: Normalized score terms — Eq. 1 scores live in [0, 1].
SCORE_BOUNDARIES: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Timer samples kept per stage (a bounded window so a long stream cannot
#: grow memory without limit; percentiles describe the recent window).
MAX_SAMPLES = 65_536


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``samples`` (unsorted ok).

    Returns 0.0 for an empty sample set — absent data reads as "no cost"
    in reports rather than raising mid-benchmark.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        # q is always a literal (50/95/99) at every call site; an
        # out-of-range q is a code bug, not a request error.
        raise ValueError(
            f"percentile must be in [0, 100], got {q}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Histogram:
    """Fixed-boundary histogram: ``boundaries[i]`` is the inclusive upper
    bound of bucket ``i``; one implicit overflow bucket catches the rest.

    Deliberately integer-only state — a floating-point running sum would
    make merged totals depend on merge order (float addition is not
    associative).  The bucket tallies are the only state: ``count`` is
    their sum, so the two can never disagree, even when another thread
    observes between two reads.
    """

    __slots__ = ("boundaries", "bucket_counts")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            # Boundaries are module constants; an empty tuple is a code
            # bug worth failing fast on, not a typed degrade.
            raise ValueError(
                "histogram needs at least one bucket boundary"
            )
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(
                f"boundaries must be strictly increasing: {bounds}"
            )
        self.boundaries = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)

    @property
    def count(self) -> int:
        return sum(self.bucket_counts)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1

    def merge(self, other: "Histogram") -> None:
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket

    def as_dict(self) -> Dict[str, object]:
        buckets = list(self.bucket_counts)  # one copy: count matches it
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": buckets,
            "count": sum(buckets),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Histogram":
        histogram = cls(payload["boundaries"])  # type: ignore[arg-type]
        buckets = list(payload["bucket_counts"])  # type: ignore[arg-type]
        if len(buckets) != len(histogram.bucket_counts):
            raise ValueError(
                f"bucket_counts length {len(buckets)} does not match "
                f"{len(histogram.boundaries)} boundaries"
            )
        histogram.bucket_counts = [int(b) for b in buckets]
        if int(payload["count"]) != histogram.count:  # type: ignore[arg-type]
            raise ValueError(
                f"count {payload['count']!r} does not match the bucket sum "
                f"{histogram.count}"
            )
        return histogram


class MetricsRegistry:
    """Process-local counters, gauges, histograms and stage timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Deque[float]] = {}
        #: The timing switch: durations are recorded only while true
        #: (counters, gauges and histograms are always on).
        self.timing = False

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def incr(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name``; creates it at zero on first use."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set level reading ``name`` (merges take the max)."""
        self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Sequence[float] = COUNT_BOUNDARIES,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``boundaries`` bind on first use; later calls must agree (fixed
        buckets are what keep histograms mergeable).
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(boundaries)
            self._histograms[name] = histogram
        elif histogram.boundaries != tuple(boundaries):
            # Every observe() call site passes a module-constant boundary
            # tuple: ``tuple()`` hands it back uncopied and its floats are
            # the histogram's own objects.  A rebind is a code bug, not a
            # request failure.
            raise ValueError(
                f"histogram {name!r} already bound to boundaries "
                f"{histogram.boundaries}"
            )
        histogram.observe(value)

    def observe_duration(self, name: str, seconds: float) -> None:
        """Record one duration sample for stage ``name``; dropped while
        the timing switch is off, whoever calls."""
        if not self.timing:
            return
        samples = self._timers.get(name)
        if samples is None:
            samples = self._timers[name] = deque(maxlen=MAX_SAMPLES)
        samples.append(seconds)

    def reset(self) -> None:
        """Drop every reading (the timing switch is kept)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._timers.clear()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def samples(self, name: str) -> List[float]:
        return list(self._timers.get(name, ()))

    def timer_stats(self, name: str) -> Dict[str, float]:
        """count / total / mean / p50 / p95 / p99 (seconds, rounded to the
        nanosecond) for one stage."""
        values = self.samples(name)
        total = sum(values)
        stats = {
            "count": float(len(values)),
            "total_s": total,
            "mean_s": total / len(values) if values else 0.0,
            "p50_s": percentile(values, 50.0),
            "p95_s": percentile(values, 95.0),
            "p99_s": percentile(values, 99.0),
        }
        return {key: round(value, 9) for key, value in stats.items()}

    def snapshot(self) -> Dict[str, object]:
        """Everything, JSON-ready and key-sorted (mergeable + diffable).

        ``timers`` is empty unless durations were recorded, so a seeded
        run with timing off snapshots identically every time.
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": {
                name: round(value, 9)
                for name, value in sorted(self._gauges.items())
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
            "timers": {
                name: self.timer_stats(name) for name in sorted(self._timers)
            },
        }

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets sum; gauges keep the maximum —
        the only combiner that is independent of merge order.  Timer
        stats are percentiles of a raw window and are not merged.
        """
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.incr(name, int(value))
        for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
            current = self._gauges.get(name)
            merged = float(value) if current is None else max(current, float(value))
            self._gauges[name] = merged
        for name, payload in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            incoming = Histogram.from_dict(payload)
            existing = self._histograms.get(name)
            if existing is None:
                self._histograms[name] = incoming
            else:
                existing.merge(incoming)


#: The process-global registry every instrumented module records into.
METRICS = MetricsRegistry()


# ---------------------------------------------------------------------- #
# document export
# ---------------------------------------------------------------------- #
def render_metrics_document(
    registry: MetricsRegistry,
    tool: str = "repro metrics",
) -> Dict[str, object]:
    """The schema-stable ``--metrics-out`` document: one file holds the
    deterministic decision metrics and, under ``metrics.timers``, any
    wall-clock stage timing recorded while the timing switch was on."""
    return {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "tool": tool,
        },
        "metrics": registry.snapshot(),
    }


_METRICS_DOCUMENT = {
    "meta": {"schema_version": const(SCHEMA_VERSION), "tool": STR},
    "metrics": {
        "counters": MapOf(INT),
        "gauges": MapOf(REAL),
        "histograms": MapOf({
            "boundaries": ListOf(REAL, non_empty=True),
            "bucket_counts": ListOf(COUNT),
            "count": COUNT,
        }),
        "timers": MapOf({
            stat: REAL
            for stat in ("count", "total_s", "mean_s", "p50_s", "p95_s", "p99_s")
        }),
    },
}


def validate_metrics_document(doc: object) -> List[str]:
    """Schema check, then each histogram through the loader ``merge``
    uses; returns a list of problems (empty when valid)."""
    return problems(doc, _METRICS_DOCUMENT) or _histogram_problems(doc)


def _histogram_problems(doc: Dict) -> List[str]:
    found: List[str] = []
    for name, payload in doc["metrics"]["histograms"].items():
        try:
            Histogram.from_dict(payload)
        except ValueError as exc:
            found.append(f"metrics.histograms.{name}: {exc}")
    return found
