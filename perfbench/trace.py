"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``[name, start_ns, end_ns, parent_id, request_id]``; its id is
its index in :attr:`Tracer.spans`.  Spans stay in memory during a run
and are written as JSONL when it ends.  The tracer is single-threaded:
the in-process workloads open spans around their calls into the library,
and the socket workloads add spans after the fact from the timestamps
the load generator already took.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

NAME, START, END, PARENT, REQUEST = range(5)


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_id")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        stack = tracer._stack
        self._id = len(tracer.spans)
        record = [self._name, 0, 0, stack[-1] if stack else None, tracer.request_id]
        tracer.spans.append(record)
        stack.append(self._id)
        record[START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter_ns()
        tracer = self._tracer
        tracer.spans[self._id][END] = end
        tracer._stack.pop()


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Stamped on every span opened or added; one value per mention.
        self.request_id = 0

    def span(self, name: str) -> _OpenSpan:
        """Context manager timing one call; nests under the open span."""
        return _OpenSpan(self, name)

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: Optional[int] = None
    ) -> int:
        """Record a span from timestamps taken elsewhere; returns its id."""
        self.spans.append([name, start_ns, end_ns, parent, self.request_id])
        return len(self.spans) - 1

    def durations_us(self, name: str) -> List[float]:
        return [
            (span[END] - span[START]) / 1000.0
            for span in self.spans
            if span[NAME] == name
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent_id": span[PARENT],
                            "request_id": span[REQUEST],
                            "workload": self.workload,
                        }
                    )
                )
                handle.write("\n")


def self_times_ns(spans: Sequence[Sequence]) -> List[int]:
    """Per span: its duration minus the part its child spans cover.

    Children may overlap each other (the union of their intervals is
    subtracted once) and are clipped to the parent's interval.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result: List[int] = []
    for span_id, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile; ``share`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, share: float) -> int:
    """How many of ``count`` samples lie beyond the ``share`` percentile."""
    return count - max(1, math.ceil(share * count))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median_and_spread(values: Sequence[float]) -> tuple:
    """Median of per-segment values and their inter-quartile spread as a
    share of that median (0 when there are too few segments to tell)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return middle, (quartiles[2] - quartiles[0]) / middle


def quiet(values: Sequence[float]) -> float:
    """The least of a run's repeated timings of one mention.

    Slow spells of one to three seconds cover about a quarter of this
    shared VM's time and inflate CPU time as much as wall time.  They
    only ever add, and they hit different mentions in different passes,
    so the least timing per mention is the code's cost in the machine's
    quiet time — which is what a change to the code moves.  (``link_hot``'s
    p50 spread 6.8 % between ten runs of one commit when taken over the
    mentions' lower quartiles, 3–5 % over their least.)
    """
    return min(values)
