"""Extended transitive closure for weighted reachability (Sec. 4.1.1).

The paper assumes query efficiency dominates and materializes the full
``|V| x |V|`` weighted reachability matrix ``R``.
:func:`build_transitive_closure_incremental` is Algorithm 1: grow the
matrix hop by hop.  At iteration ``len`` a pair ``(u, v)`` still unset gets
distance ``len`` and ``|F_uv| = n_v``, the number of ``u``'s followees whose
distance to ``v`` is exactly ``len - 1`` (Theorem 1) — ``O(H * |V|^2)``,
where iteration ``len`` is one matrix product ``A @ (D == len-1)``, which is
what makes the build fast in pure Python.  The matrix keeps those two
integers, three bytes a pair, and :meth:`TransitiveClosure.reachability`
evaluates Eq. 4 from them at lookup
(:func:`repro.graph.reachability.reachability_weight`).  (The paper's
per-pair strawman it is benchmarked against in Fig. 5(b) is
:func:`repro.testing.oracles.build_transitive_closure_naive`.)

:class:`TransitiveClosure` also accepts dict-of-dicts rows: that is what
:meth:`repro.graph.dynamic.DynamicTransitiveClosure.snapshot` freezes into.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight
from repro.graph.traversal import shortest_path_dag, followees_on_shortest_paths


class TransitiveClosure:
    """Materialized weighted reachability matrix with O(1) queries.

    ``dense`` is ``(dist, count, degrees)``: ``|V| x |V|`` arrays of ``d_uv``
    (``uint8``, 0 = unreachable or ``u == v``) and ``|F_uv|`` (set where
    ``d_uv >= 2``), and the list of ``|F_u|``.  They are read through flat
    memoryviews, which index faster than numpy scalars but do not pickle;
    nothing pickles a closure.
    """

    def __init__(
        self,
        num_nodes: int,
        max_hops: int,
        dense: Optional[Tuple[np.ndarray, np.ndarray, List[int]]] = None,
        sparse: Optional[List[Dict[int, float]]] = None,
    ) -> None:
        if (dense is None) == (sparse is None):
            raise ValueError("exactly one of dense/sparse storage must be given")
        self._num_nodes = num_nodes
        self._max_hops = max_hops
        self._sparse = sparse
        if dense is not None:
            dist, count, self._degrees = dense
            self._dist = memoryview(dist.ravel())
            self._count = memoryview(count.ravel())

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def max_hops(self) -> int:
        return self._max_hops

    @property
    def backend(self) -> str:
        return "dense" if self._sparse is None else "sparse"

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` — an O(1) lookup."""
        if source == target:
            return 0.0
        if self._sparse is not None:
            return self._sparse[source].get(target, 0.0)
        pair = source * self._num_nodes + target
        distance = self._dist[pair]
        if not distance:
            return 0.0
        return reachability_weight(distance, self._count[pair], self._degrees[source])

    def reachable_from(self, source: int) -> Dict[int, float]:
        """All nonzero ``R(source, *)`` as a dict."""
        if self._sparse is not None:
            return dict(self._sparse[source])
        row = source * self._num_nodes
        return {
            target: self.reachability(source, target)
            for target, distance in enumerate(self._dist[row : row + self._num_nodes])
            if distance
        }

    def nonzero_entries(self) -> int:
        """Number of stored nonzero pairs (index-size proxy for Table 5)."""
        if self._sparse is not None:
            return sum(len(row) for row in self._sparse)
        return int(np.count_nonzero(self._dist))

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the index (Table 5 column)."""
        if self._sparse is not None:
            overhead = sys.getsizeof({})
            # dict entry of float + int key, rough CPython cost
            return sum(overhead + 100 * len(row) for row in self._sparse)
        # both matrices plus one list slot per out-degree
        return self._dist.nbytes + self._count.nbytes + 8 * len(self._degrees)


def build_transitive_closure_incremental(
    graph: DiGraph, max_hops: int = DEFAULT_MAX_HOPS
) -> TransitiveClosure:
    """Algorithm 1 — incremental hop-by-hop construction.

    Iteration ``len`` only consults entries of exact distance ``len - 1``
    (written during the previous iteration), so in-place updates are safe:
    entries written at iteration ``len`` carry distance ``len`` and are never
    read back within the same iteration.
    """
    check_byte_hops(max_hops)
    n = graph.num_nodes
    degrees = [graph.out_degree(u) for u in graph.nodes()]
    # |F_uv| <= |F_u|, so the widest count is the largest out-degree
    count_dtype = np.uint16 if max(degrees, default=0) <= 0xFFFF else np.uint32
    dist = np.zeros((n, n), dtype=np.uint8)
    count = np.zeros((n, n), dtype=count_dtype)
    # single-precision operands keep the product in BLAS; its counts
    # (<= |V| < 2**24) are exact
    adjacency = np.zeros((n, n), dtype=np.float32)
    for u, v in graph.edges():
        adjacency[u, v] = 1.0
        dist[u, v] = 1
    for length in range(2, max_hops + 1):
        at_previous = (dist == length - 1).astype(np.float32)
        # counts[u, v] = number of u's followees at distance length-1 from v
        counts = adjacency @ at_previous
        fresh = (dist == 0) & (counts > 0)
        np.fill_diagonal(fresh, False)
        if not fresh.any():
            break
        count[fresh] = counts[fresh]
        dist[fresh] = length
    return TransitiveClosure(n, max_hops, dense=(dist, count, degrees))


def exact_followee_set(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> set:
    """Exact :math:`F_{uv}` — followees of ``source`` on a shortest path.

    Exposed for tests and for validating the 2-hop cover's recovered sets.
    """
    dist, preds = shortest_path_dag(graph, source, max_hops)
    return followees_on_shortest_paths(graph, source, dist, preds, target)
