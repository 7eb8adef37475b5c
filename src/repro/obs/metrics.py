"""Longitudinal metrics: counters, gauges, fixed-bucket histograms.

Where :mod:`repro.perf` answers "where did the wall-clock go" with
per-stage timers, this registry answers "what did the system *do*":
requests linked, candidates per mention, degradations by reason, dead
letters by cause, breaker transitions, best-score distributions.  The
design constraints, in order:

1. **Determinism** — every metric recorded by the library encodes a
   *decision*, never a duration, so identical seeded runs produce
   identical snapshots (wall-clock timing stays in :mod:`repro.perf`
   and is absorbed only at export time).
2. **Mergeability** — :meth:`MetricsRegistry.merge` folds another
   registry's snapshot in by summing counters and histogram buckets
   (gauges take the max, the only order-free combiner for level
   readings); ``repro trace`` combines its per-scenario registries
   this way.
3. **Fixed buckets** — histogram boundaries are declared at first
   ``observe`` and never inferred from data, so two registries'
   histograms are always bucket-compatible and snapshots diff cleanly
   across runs.

The process-global :data:`METRICS` mirrors :data:`repro.perf.PERF`:
always-on dictionary updates, cheap enough for the linking hot path, not
thread-safe because the linker is single-threaded per process.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf import PerfRegistry

__all__ = [
    "COUNT_BOUNDARIES",
    "Histogram",
    "LATENCY_BOUNDARIES_S",
    "METRICS",
    "MetricsRegistry",
    "SCORE_BOUNDARIES",
    "render_metrics_document",
    "validate_metrics_document",
]

#: Schema version of the ``--metrics-out`` document (append-only policy,
#: see docs/observability.md).
SCHEMA_VERSION = 1

#: Candidate-set sizes and similar small cardinalities.
COUNT_BOUNDARIES: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 50.0)

#: Normalized score terms — Eq. 1 scores live in [0, 1].
SCORE_BOUNDARIES: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Seconds; used when absorbing :mod:`repro.perf` timer samples.
LATENCY_BOUNDARIES_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Histogram:
    """Fixed-boundary histogram: ``boundaries[i]`` is the inclusive upper
    bound of bucket ``i``; one implicit overflow bucket catches the rest.

    Deliberately integer-only state (bucket tallies and the observation
    count) — a floating-point running sum would make merged totals
    depend on merge order (float addition is not associative).
    """

    __slots__ = ("boundaries", "bucket_counts", "count")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            # Boundaries are module constants; an empty tuple is a code
            # bug worth failing fast on, not a typed degrade.
            raise ValueError(  # repro: noqa[FLOW-002] -- code-bug invariant
                "histogram needs at least one bucket boundary"
            )
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(  # repro: noqa[FLOW-002] -- code-bug invariant
                f"boundaries must be strictly increasing: {bounds}"
            )
        self.boundaries = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count

    def as_dict(self) -> Dict[str, object]:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
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
        histogram.count = int(payload["count"])  # type: ignore[arg-type]
        return histogram


class MetricsRegistry:
    """Process-local counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

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
        elif histogram.boundaries != tuple(float(b) for b in boundaries):
            # Every observe() call site passes a module-constant boundary
            # tuple; a rebind is a code bug, not a request failure.
            raise ValueError(  # repro: noqa[FLOW-002] -- code-bug invariant
                f"histogram {name!r} already bound to boundaries "
                f"{histogram.boundaries}"
            )
        histogram.observe(value)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, object]:
        """Everything, JSON-ready and key-sorted (mergeable + diffable)."""
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
        }

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets sum; gauges keep the maximum —
        the only combiner that is independent of merge order.
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

    def absorb_perf(self, perf: PerfRegistry, prefix: str = "perf.") -> None:
        """Absorb a :class:`~repro.perf.PerfRegistry` into this registry.

        Counters copy one-to-one under ``prefix``; timer samples land in
        fixed-bucket latency histograms.  This is the migration bridge:
        the ad-hoc perf counters stay recorded where they are, and the
        metrics document presents one unified view (parity between the
        two is asserted by the test suite).
        """
        perf_snapshot = perf.snapshot()
        for name, value in perf_snapshot["counters"].items():  # type: ignore[index]
            self.incr(prefix + name, int(value))
        for name in perf_snapshot["timers"]:  # type: ignore[attr-defined]
            for sample in perf.samples(name):
                self.observe(prefix + name, sample, boundaries=LATENCY_BOUNDARIES_S)


#: The process-global registry every instrumented module records into.
METRICS = MetricsRegistry()


# ---------------------------------------------------------------------- #
# document export (mirrors the BENCH/check reporters)
# ---------------------------------------------------------------------- #
def render_metrics_document(
    registry: MetricsRegistry,
    perf: Optional[PerfRegistry] = None,
    tool: str = "repro metrics",
) -> Dict[str, object]:
    """The schema-stable ``--metrics-out`` document.

    ``perf`` (usually :data:`repro.perf.PERF`) contributes the wall-clock
    side: its snapshot rides along verbatim under ``perf`` so one file
    holds both the deterministic decision metrics and the timing.
    """
    return {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "tool": tool,
        },
        "metrics": registry.snapshot(),
        "perf": perf.snapshot() if perf is not None else None,
    }


def validate_metrics_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing or non-object section 'meta'")
    else:
        if meta.get("schema_version") != SCHEMA_VERSION:
            problems.append(
                f"meta.schema_version is {meta.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        if "tool" not in meta:
            problems.append("meta.tool missing")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("missing or non-object section 'metrics'")
    else:
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(section), dict):
                problems.append(f"metrics.{section} missing or not an object")
        histograms = metrics.get("histograms")
        if isinstance(histograms, dict):
            for name, payload in histograms.items():
                if not isinstance(payload, dict) or not (
                    {"boundaries", "bucket_counts", "count"} <= set(payload)
                ):
                    problems.append(
                        f"metrics.histograms[{name!r}] missing "
                        "boundaries/bucket_counts/count"
                    )
                    continue
                buckets = payload["bucket_counts"]
                if (
                    isinstance(buckets, list)
                    and isinstance(payload["count"], int)
                    and sum(int(b) for b in buckets) != payload["count"]
                ):
                    problems.append(
                        f"metrics.histograms[{name!r}] bucket counts do not "
                        "sum to count"
                    )
    if "perf" not in doc:
        problems.append("section 'perf' missing (null is allowed)")
    return problems
