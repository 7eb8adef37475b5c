"""Extended transitive closure for weighted reachability (Sec. 4.1.1).

The paper assumes query efficiency dominates and materializes the full
``|V| x |V|`` weighted reachability matrix ``R``.
:func:`build_transitive_closure_incremental` is Algorithm 1: grow the
matrix hop by hop.  At iteration ``len`` a pair ``(u, v)`` still unset is
assigned ``R(u, v) = (1/len) * n_v / |F_u|`` where ``n_v`` counts ``u``'s
followees whose distance to ``v`` is exactly ``len - 1`` (Theorem 1) —
``O(H * |V|^2)`` over numpy ``float32``/``int16`` matrices, where iteration
``len`` is one boolean matrix product ``A @ (D == len-1)``, which is what
makes the build fast in pure Python.  (The paper's per-pair strawman it is
benchmarked against in Fig. 5(b) is
:func:`repro.testing.oracles.build_transitive_closure_naive`.)

:class:`TransitiveClosure` also accepts dict-of-dicts rows: that is what
:meth:`repro.graph.dynamic.DynamicTransitiveClosure.snapshot` freezes into.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

import numpy as np

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.traversal import shortest_path_dag, followees_on_shortest_paths


class TransitiveClosure:
    """Materialized weighted reachability matrix with O(1) queries."""

    def __init__(
        self,
        num_nodes: int,
        max_hops: int,
        dense: Optional[np.ndarray] = None,
        sparse: Optional[List[Dict[int, float]]] = None,
    ) -> None:
        if (dense is None) == (sparse is None):
            raise ValueError("exactly one of dense/sparse storage must be given")
        self._num_nodes = num_nodes
        self._max_hops = max_hops
        self._dense = dense
        self._sparse = sparse

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def max_hops(self) -> int:
        return self._max_hops

    @property
    def backend(self) -> str:
        return "dense" if self._dense is not None else "sparse"

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` — an O(1) lookup."""
        if source == target:
            return 0.0
        if self._dense is not None:
            return float(self._dense[source, target])
        return self._sparse[source].get(target, 0.0)

    def reachable_from(self, source: int) -> Dict[int, float]:
        """All nonzero ``R(source, *)`` as a dict."""
        if self._dense is not None:
            row = self._dense[source]
            nonzero = np.nonzero(row)[0]
            return {int(v): float(row[v]) for v in nonzero if v != source}
        return dict(self._sparse[source])

    def nonzero_entries(self) -> int:
        """Number of stored nonzero pairs (index-size proxy for Table 5)."""
        if self._dense is not None:
            return int(np.count_nonzero(self._dense))
        return sum(len(row) for row in self._sparse)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the index (Table 5 column)."""
        if self._dense is not None:
            return int(self._dense.nbytes)
        overhead = sys.getsizeof({})
        # dict entry of float + int key, rough CPython cost
        return sum(overhead + 100 * len(row) for row in self._sparse)


def build_transitive_closure_incremental(
    graph: DiGraph, max_hops: int = DEFAULT_MAX_HOPS
) -> TransitiveClosure:
    """Algorithm 1 — incremental hop-by-hop construction.

    Iteration ``len`` only consults entries of exact distance ``len - 1``
    (written during the previous iteration), so in-place updates are safe:
    entries written at iteration ``len`` carry distance ``len`` and are never
    read back within the same iteration.
    """
    n = graph.num_nodes
    reach = np.zeros((n, n), dtype=np.float32)
    dist = np.full((n, n), np.iinfo(np.int16).max, dtype=np.int16)
    adjacency = np.zeros((n, n), dtype=np.float32)
    out_degrees = np.zeros(n, dtype=np.float32)
    for u, v in graph.edges():
        adjacency[u, v] = 1.0
        reach[u, v] = 1.0
        dist[u, v] = 1
        out_degrees[u] += 1.0
    np.fill_diagonal(dist, 0)
    safe_degrees = np.where(out_degrees > 0, out_degrees, 1.0)
    for length in range(2, max_hops + 1):
        at_previous = (dist == length - 1).astype(np.float32)
        # counts[u, v] = number of u's followees at distance length-1 from v
        counts = adjacency @ at_previous
        fresh = (dist > length) & (counts > 0)
        np.fill_diagonal(fresh, False)
        if not fresh.any():
            break
        rows, cols = np.nonzero(fresh)
        reach[rows, cols] = (counts[rows, cols] / safe_degrees[rows]) / length
        dist[rows, cols] = length
    return TransitiveClosure(n, max_hops, dense=reach)


def exact_followee_set(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> set:
    """Exact :math:`F_{uv}` — followees of ``source`` on a shortest path.

    Exposed for tests and for validating the 2-hop cover's recovered sets.
    """
    dist, preds = shortest_path_dag(graph, source, max_hops)
    return followees_on_shortest_paths(graph, source, dist, preds, target)
