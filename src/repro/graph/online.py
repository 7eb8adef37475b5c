"""Index-free weighted reachability: one BFS per source, LRU-cached.

This is the "online search" category of Sec. 2 — no pre-computation,
higher query latency.  A single BFS yields all targets for a source, so
scoring one user against many influential users costs one traversal.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import weighted_reachability_from
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE


class OnlineReachability:
    """Cached per-source BFS provider; no index maintenance — rows carry
    the ``graph.epoch`` they were walked under and are dropped when it moves."""

    def __init__(
        self, graph: DiGraph, max_hops: int = DEFAULT_MAX_HOPS, cache_size: int = 256
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        self._graph = graph
        self._max_hops = max_hops
        self._cache_size = cache_size
        self._cache: "OrderedDict[int, Dict[int, float]]" = OrderedDict()
        self._epoch = graph.epoch.value

    def reachability(self, source: int, target: int) -> float:
        epoch = self._graph.epoch.value
        if epoch != self._epoch:
            self._cache.clear()
            self._epoch = epoch
        row = self._cache.get(source)
        if row is None:
            METRICS.incr("online_bfs.miss")
            with TRACE.span("reachability.bfs", source=source) as span:
                row = weighted_reachability_from(self._graph, source, self._max_hops)
                if span.recording:
                    span.set_attribute("reached", len(row))
            self._cache[source] = row
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        else:
            METRICS.incr("online_bfs.hit")
            self._cache.move_to_end(source)
        return row.get(target, 0.0)
