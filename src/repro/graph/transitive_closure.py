"""Extended transitive closure for weighted reachability (Sec. 4.1.1).

The paper assumes query efficiency dominates and materializes the full
``|V| x |V|`` weighted reachability matrix ``R``.  Two builders are provided:

* :func:`build_transitive_closure_naive` — the paper's strawman: one
  BFS-with-shortest-path-DAG per node pair, ``O(|V|^2 * |E|)`` overall.
  Only usable on tiny graphs; benchmarked against the incremental
  algorithm in Fig. 5(b).
* :func:`build_transitive_closure_incremental` — Algorithm 1: grow the
  matrix hop by hop.  At iteration ``len`` a pair ``(u, v)`` still unset is
  assigned ``R(u, v) = (1/len) * n_v / |F_u|`` where ``n_v`` counts ``u``'s
  followees whose distance to ``v`` is exactly ``len - 1`` (Theorem 1).
  ``O(H * |V|^2)`` with the dense backend.

Two storage backends:

* ``dense`` — numpy ``float32``/``int16`` matrices; iteration ``len`` is one
  boolean matrix product ``A @ (D == len-1)``, which is what makes the
  incremental build fast in pure Python.
* ``sparse`` — dict-of-dicts; preferable when hop-``H`` neighbourhoods are
  small relative to ``|V|`` (large sparse graphs).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import weighted_reachability
from repro.graph.traversal import shortest_path_dag, followees_on_shortest_paths

#: Above this node count the incremental builder defaults to the sparse
#: backend (a dense float32 + int16 pair costs ~6 bytes * |V|^2).
_DENSE_NODE_LIMIT = 4096


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


def build_transitive_closure_naive(
    graph: DiGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    pairs: Optional[Iterable[tuple]] = None,
) -> TransitiveClosure:
    """The paper's naive baseline: an independent BFS per node pair.

    ``pairs`` restricts the computation to the given (source, target) pairs
    (the Fig. 5(b) bench uses this to extrapolate without running for hours);
    by default all ordered pairs are computed.  Deliberately does *not* reuse
    the single-source DAG across targets — that reuse is precisely the
    advantage the incremental algorithm demonstrates.
    """
    sparse: List[Dict[int, float]] = [dict() for _ in graph.nodes()]
    if pairs is None:
        pairs = (
            (u, v) for u in graph.nodes() for v in graph.nodes() if u != v
        )
    for u, v in pairs:
        r = weighted_reachability(graph, u, v, max_hops)
        if r:
            sparse[u][v] = r
    return TransitiveClosure(graph.num_nodes, max_hops, sparse=sparse)


def build_transitive_closure_incremental(
    graph: DiGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    backend: Optional[str] = None,
) -> TransitiveClosure:
    """Algorithm 1 — incremental hop-by-hop construction.

    Iteration ``len`` only consults entries of exact distance ``len - 1``
    (written during the previous iteration), so in-place updates are safe:
    entries written at iteration ``len`` carry distance ``len`` and are never
    read back within the same iteration.
    """
    if backend is None:
        backend = "dense" if graph.num_nodes <= _DENSE_NODE_LIMIT else "sparse"
    if backend == "dense":
        return _build_incremental_dense(graph, max_hops)
    if backend == "sparse":
        return _build_incremental_sparse(graph, max_hops)
    raise ValueError(f"unknown backend {backend!r}")


def _build_incremental_dense(graph: DiGraph, max_hops: int) -> TransitiveClosure:
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


def _build_incremental_sparse(graph: DiGraph, max_hops: int) -> TransitiveClosure:
    n = graph.num_nodes
    reach: List[Dict[int, float]] = [dict() for _ in range(n)]
    dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    # per node: nodes at exactly the previous distance (the BFS frontier)
    frontier: List[List[int]] = [list(graph.out_neighbors(u)) for u in range(n)]
    for u in range(n):
        for v in graph.out_neighbors(u):
            reach[u][v] = 1.0
            dist[u][v] = 1
    for length in range(2, max_hops + 1):
        next_frontier: List[List[int]] = [[] for _ in range(n)]
        any_new = False
        for u in range(n):
            followees = graph.out_neighbors(u)
            if not followees:
                continue
            counts: Dict[int, int] = {}
            for t in followees:
                for v in frontier[t]:
                    counts[v] = counts.get(v, 0) + 1
            known = dist[u]
            inv = 1.0 / (length * len(followees))
            fresh = next_frontier[u]
            for v, n_v in counts.items():
                if v != u and v not in known:
                    known[v] = length
                    reach[u][v] = n_v * inv
                    fresh.append(v)
            if fresh:
                any_new = True
        frontier = next_frontier
        if not any_new:
            break
    return TransitiveClosure(n, max_hops, sparse=reach)


def exact_followee_set(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> set:
    """Exact :math:`F_{uv}` — followees of ``source`` on a shortest path.

    Exposed for tests and for validating the 2-hop cover's recovered sets.
    """
    dist, preds = shortest_path_dag(graph, source, max_hops)
    return followees_on_shortest_paths(graph, source, dist, preds, target)
