"""Extended transitive closure for weighted reachability (Sec. 4.1.1).

The paper assumes query efficiency dominates and materializes the full
``|V| x |V|`` weighted reachability matrix ``R``.
:func:`build_transitive_closure_incremental` is Algorithm 1: grow the
matrix hop by hop.  At iteration ``len`` a pair ``(u, v)`` still unset gets
distance ``len`` and ``|F_uv| = n_v``, the number of ``u``'s followees whose
distance to ``v`` is exactly ``len - 1`` (Theorem 1).  Iteration ``len``
is the dense product ``A @ (D == len-1)`` in BLAS, ``O(|V|^3)`` flops,
taken ``TILE x TILE`` block by block.  The matrix keeps those two
integers, three bytes a pair; the build peaks at that plus
``O(TILE * |V|)``.  :meth:`TransitiveClosure.reachability`
evaluates Eq. 4 from them at lookup
(:func:`repro.graph.reachability.reachability_weight`).  (The paper's
per-pair strawman it is benchmarked against in Fig. 5(b) is
:func:`repro.testing.oracles.build_transitive_closure_naive`.)  The
closure is built once over the graph as it stands; a changed graph is a
rebuild.
"""

from __future__ import annotations

from itertools import chain
from typing import List

import numpy as np

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight
from repro.graph.traversal import shortest_path_dag, followees_on_shortest_paths

#: Edge of the square tiles Algorithm 1 multiplies: the build holds the
#: index plus two ``TILE x |V|`` float32 operands and one ``TILE x TILE``
#: product, whatever ``|V|``.
TILE = 512
#: The diagonal's distance during the build: above every ``len - 1``
#: (``max_hops <= 255``) and not ``1``, so no iteration reads it, and not
#: ``0``, so none fills it.
_SELF = 255


class TransitiveClosure:
    """Materialized weighted reachability matrix with O(1) queries.

    ``dist`` and ``count`` are ``|V| x |V|`` arrays of ``d_uv`` (``uint8``,
    0 = unreachable or ``u == v``) and ``|F_uv|`` (set where ``d_uv >= 2``);
    ``degrees`` is the list of ``|F_u|``.  The matrices are read through
    flat memoryviews, which index faster than numpy scalars but do not
    pickle; nothing pickles a closure.
    """

    def __init__(
        self, max_hops: int, dist: np.ndarray, count: np.ndarray, degrees: List[int]
    ) -> None:
        self._num_nodes = len(degrees)
        self._max_hops = max_hops
        self._degrees = degrees
        self._dist = memoryview(dist.ravel())
        self._count = memoryview(count.ravel())

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def max_hops(self) -> int:
        return self._max_hops

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` — an O(1) lookup."""
        if source == target:
            return 0.0
        pair = source * self._num_nodes + target
        distance = self._dist[pair]
        if not distance:
            return 0.0
        return reachability_weight(distance, self._count[pair], self._degrees[source])

    def nonzero_entries(self) -> int:
        """Number of stored nonzero pairs (index-size proxy for Table 5)."""
        return int(np.count_nonzero(self._dist))

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the index (Table 5 column):
        both matrices plus one list slot per out-degree."""
        return self._dist.nbytes + self._count.nbytes + 8 * len(self._degrees)


def build_transitive_closure_incremental(
    graph: DiGraph, max_hops: int = DEFAULT_MAX_HOPS
) -> TransitiveClosure:
    """Algorithm 1 — incremental hop-by-hop construction, tile by tile.

    Iteration ``len`` only reads entries of distance ``len - 1`` (the
    operand) and ``1`` (the adjacency), and only writes ``len``, so
    in-place updates are safe across tiles: nothing written in an
    iteration is read back within it, and no edge is overwritten.
    """
    check_byte_hops(max_hops)
    n = graph.num_nodes
    degrees = [graph.out_degree(u) for u in graph.nodes()]
    # |F_uv| <= |F_u|, so the widest count is the largest out-degree
    count_dtype = np.uint16 if max(degrees, default=0) <= 0xFFFF else np.uint32
    dist = np.zeros((n, n), dtype=np.uint8)
    count = np.zeros((n, n), dtype=count_dtype)
    sources = np.repeat(np.arange(n), np.array(degrees, dtype=np.intp))
    targets = np.fromiter(
        chain.from_iterable(map(graph.out_neighbors, graph.nodes())),
        dtype=np.intp,
        count=len(sources),
    )
    dist[sources, targets] = 1
    # the diagonal holds a distance no iteration reads or fills, so no
    # u -> ... -> u cycle is stored; cleared once the build is done
    np.fill_diagonal(dist, _SELF)
    # single-precision tiles keep the product in BLAS; its counts
    # (<= |V| < 2**24) are exact
    side = min(n, TILE)
    operand = np.empty((n, side), dtype=np.float32)
    followees = np.empty((side, n), dtype=np.float32)
    product = np.empty((side, side), dtype=np.float32)
    for length in range(2, max_hops + 1):
        grew = False
        for col in range(0, n, TILE):
            cols = slice(col, col + TILE)
            width = min(TILE, n - col)
            np.equal(dist[:, cols], length - 1, out=operand[:, :width])
            for row in range(0, n, TILE):
                rows = slice(row, row + TILE)
                height = min(TILE, n - row)
                np.equal(dist[rows], 1, out=followees[:height])
                # counts[u, v] = number of u's followees at distance len-1 from v
                counts = product[:height, :width]
                np.matmul(followees[:height], operand[:, :width], out=counts)
                block, tally = dist[rows, cols], count[rows, cols]
                fresh = block == 0
                fresh &= counts > 0
                # unset pairs hold 0 in both matrices, so adding the masked
                # tile writes the fresh pairs and leaves the others as they are
                # (twice as fast as np.copyto(..., where=fresh) on these views)
                counts *= fresh
                np.add(tally, counts, out=tally, casting="unsafe")
                block += fresh * np.uint8(length)
                grew = grew or fresh.any()
        if not grew:
            break
    np.fill_diagonal(dist, 0)
    return TransitiveClosure(max_hops, dist, count, degrees)


def exact_followee_set(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> set:
    """Exact :math:`F_{uv}` — followees of ``source`` on a shortest path.

    Exposed for tests and for validating the 2-hop cover's recovered sets.
    """
    dist, preds = shortest_path_dag(graph, source, max_hops)
    return followees_on_shortest_paths(graph, source, dist, preds, target)
