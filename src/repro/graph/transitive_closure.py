"""Extended transitive closure for weighted reachability (Sec. 4.1.1).

The paper assumes query efficiency dominates and materializes the full
``|V| x |V|`` weighted reachability matrix ``R``.
:func:`build_transitive_closure_incremental` is Algorithm 1: grow the
matrix hop by hop.  At iteration ``len`` a pair ``(u, v)`` still unset gets
distance ``len`` and ``|F_uv| = n_v``, the number of ``u``'s followees whose
distance to ``v`` is exactly ``len - 1`` (Theorem 1).  Iteration ``len``
sums, per followee slot, the rows ``D[f, :] == len - 1`` of every
followee ``f``: ``O(|E| * |V|)`` integer adds, ``TILE`` rows at a time.
The matrix keeps those two integers, the count in the narrowest unsigned
type that holds the largest out-degree (2 B a pair up to 255 followees);
the build peaks at that plus ``O(TILE * |V|)``.
:meth:`TransitiveClosure.reachability` evaluates Eq. 4 from them at lookup
(:func:`repro.graph.reachability.reachability_weight`).  (The paper's
per-pair strawman it is benchmarked against in Fig. 5(b) is
:func:`repro.testing.oracles.build_transitive_closure_naive`.)  The
closure is built once over the graph as it stands; a changed graph is a
rebuild.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Tuple

import numpy as np

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight
from repro.graph.traversal import shortest_path_dag, followees_on_shortest_paths

#: Rows Algorithm 1 tallies at a time: the build holds the index plus four
#: ``TILE x |V|`` buffers of at most 4 B a cell, whatever ``|V|``.
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
    """Algorithm 1 — incremental hop-by-hop construction, row tile by row tile.

    Iteration ``len`` only reads entries of distance ``len - 1`` (the
    followees' rows) and only writes ``len``, so in-place updates are safe
    across tiles: nothing written in an iteration is read back within it,
    and no edge is overwritten.
    """
    check_byte_hops(max_hops)
    n = graph.num_nodes
    degrees = [graph.out_degree(u) for u in graph.nodes()]
    # |F_uv| <= |F_u|, so the widest count is the largest out-degree; the
    # tally and the stored count take the narrowest type that holds it
    count_dtype = np.min_scalar_type(max(degrees, default=0))
    dist = np.zeros((n, n), dtype=np.uint8)
    count = np.zeros((n, n), dtype=count_dtype)
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(degrees, out=offsets[1:])
    targets = np.fromiter(
        chain.from_iterable(map(graph.out_neighbors, graph.nodes())),
        dtype=np.intp,
        count=offsets[-1],
    )
    dist[np.repeat(np.arange(n), np.diff(offsets)), targets] = 1
    # the diagonal holds a distance no iteration reads or fills, so no
    # u -> ... -> u cycle is stored; cleared once the build is done
    np.fill_diagonal(dist, _SELF)
    tiles = [
        _followee_slots(offsets, targets, row, min(row + TILE, n))
        for row in range(0, n, TILE)
    ]
    side = min(n, TILE)
    buffers = (
        np.empty((side, n), dtype=np.uint8),
        np.empty((side, n), dtype=np.bool_),
        np.empty((side, n), dtype=count_dtype),
        np.empty((side, n), dtype=count_dtype),
    )
    for length in range(2, max_hops + 1):
        if not _iterate(dist, count, tiles, buffers, length):
            break
    np.fill_diagonal(dist, 0)
    return TransitiveClosure(max_hops, dist, count, degrees)


def _followee_slots(
    offsets: np.ndarray, targets: np.ndarray, start: int, stop: int
) -> Tuple[int, np.ndarray, List[np.ndarray]]:
    """Rows ``start..stop-1`` by descending out-degree, and per followee
    slot ``k`` the ``k``-th followee of every row that has one.

    Those rows are a prefix of the sorted tile, so slot ``k``'s array is as
    long as that prefix.  Returns ``(start, rank, slots)``: ``rank[i]`` is
    row ``start + i``'s position in the sorted tile.
    """
    widths = np.diff(offsets[start : stop + 1])
    order = np.argsort(-widths)
    widths, firsts = widths[order], offsets[start:stop][order]
    # widths descend, so the rows with a k-th followee are those with width > k
    prefix = np.searchsorted(-widths, -np.arange(widths.max(initial=0)), side="left")
    slots = [targets[firsts[:rows] + k] for k, rows in enumerate(prefix)]
    return start, np.argsort(order), slots


def _iterate(
    dist: np.ndarray,
    count: np.ndarray,
    tiles: List[Tuple[int, np.ndarray, List[np.ndarray]]],
    buffers: Tuple[np.ndarray, ...],
    length: int,
) -> bool:
    """Iteration ``len`` of Algorithm 1 over every row tile (Theorem 1):
    ``tally[u, :]`` sums ``D[f, :] == len - 1`` over ``u``'s followees
    ``f``, and unset pairs it reaches get ``len`` and the tally.  Returns
    whether any pair was set."""
    gathered, hits, tally, unsorted = buffers
    grew = False
    for start, rank, slots in tiles:
        if not slots:
            continue  # a tile of sinks reaches nothing
        height = len(rank)
        tally[:height] = 0
        # every index is in range, and "clip" skips take's checked copy
        for followees in slots:
            rows = len(followees)
            np.take(dist, followees, axis=0, out=gathered[:rows], mode="clip")
            np.equal(gathered[:rows], length - 1, out=hits[:rows])
            np.add(tally[:rows], hits[:rows], out=tally[:rows])
        counts = np.take(tally[:height], rank, axis=0, out=unsorted[:height], mode="clip")
        block, totals = dist[start : start + height], count[start : start + height]
        fresh = np.equal(block, 0, out=hits[:height])
        fresh &= np.greater(counts, 0, out=gathered[:height].view(np.bool_))
        # unset pairs hold 0 in both matrices, so adding the masked tally
        # writes the fresh pairs and leaves the others as they are
        counts *= fresh
        totals += counts
        block += np.multiply(fresh, np.uint8(length), out=gathered[:height])
        grew = grew or bool(fresh.any())
    return grew


def exact_followee_set(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> set:
    """Exact :math:`F_{uv}` — followees of ``source`` on a shortest path.

    Exposed for tests and for validating the 2-hop cover's recovered sets.
    """
    dist, preds = shortest_path_dag(graph, source, max_hops)
    return followees_on_shortest_paths(graph, source, dist, preds, target)
