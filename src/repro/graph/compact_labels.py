"""Hop-bounded pruned landmark labeling for Eq. 4, in flat buffers
(DESIGN.md §7, docs/scaling.md).

The shipped index past the closure's |V|² wall is a plain PLL in the
sense of Akiba et al. (SIGMOD'13), the scheme the paper's Algorithm 2
extends: ``L_in(v)`` holds ``(pivot, d_pivot_v)`` for pivots that reach
``v`` and ``L_out(v)`` holds ``(pivot, d_v_pivot)`` for pivots ``v``
reaches, both within ``max_hops``.  Landmarks are processed in descending
degree order; each runs one pruned BFS over ``in_neighbors`` (growing
``L_out``) and one over ``out_neighbors`` (growing ``L_in``), labelling a
node iff the landmark is strictly closer than what earlier landmarks
already give.  A tie is pruned, and a pruned node is not revisited.

Why that covers every pair: for ``d(s, t) <= H`` let ``v`` be the
earliest-ranked vertex on any shortest ``s -> t`` path.  Neither of
``v``'s searches can be pruned on the way to ``s`` or ``t`` (a prune
would put an earlier landmark on a shortest path) and both legs are
``<= d(s, t) <= H``, so ``(v, d_sv)`` is in ``L_out(s)`` and ``(v, d_vt)``
in ``L_in(t)``: ``distance`` is exact within the horizon.

``reachability`` is that distance plus Theorem 1 — the followees of ``s``
on a shortest path to ``t`` are exactly those at distance ``d_st - 1``
from ``t`` — so Eq. 4 is evaluated on the exact ``F_st``, the same set the
transitive closure materializes, in ``1 + |F_s|`` label merges.  The
paper's Algorithm 2 proper, which stores a followee set in every out-label
and recovers a *subset* of ``F_st`` from them (Theorem 2), is
:class:`repro.testing.oracles.TwoHopCover`; Table 5 measures that one.

Layout, CSR-style: ``landmarks[r]`` is the node processed at rank ``r``
and ``rank_of`` its inverse; ``in_offsets`` / ``out_offsets`` (``q``)
slice ``in_pivots`` / ``out_pivots`` (``i``) and the parallel distance
bytes ``in_dists`` / ``out_dists``.  Pivots are stored as *ranks*, so
every node's run is sorted by construction (landmark ``r`` writes all of
its entries before ``r + 1`` starts) and a query merges two sorted runs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, List, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight

__all__ = ["CompactTwoHopCover", "build_compact_two_hop_cover"]

#: Sentinel distance for unreachable pairs.
INF = float("inf")

#: One node's label while the index is built: pivot ranks, distance bytes.
_Label = Tuple[array, bytearray]


def _label_distance(
    a_pivots, a_dists, a_lo: int, a_hi: int, a_rank: int,
    b_pivots, b_dists, b_lo: int, b_hi: int, b_rank: int,
):
    """Shortest distance two label runs give, ignoring the hop horizon.

    Run ``a`` is ``*_pivots[a_lo:a_hi]`` of the node ranked ``a_rank``
    (likewise ``b``); one is an out-label and the other an in-label.  The
    minimum is over ``b``'s node as a pivot of ``a``, ``a``'s node as a
    pivot of ``b``, and every pivot the two sorted runs share.
    """
    best = INF
    k = bisect_left(a_pivots, b_rank, a_lo, a_hi)
    if k < a_hi and a_pivots[k] == b_rank:
        best = a_dists[k]
    k = bisect_left(b_pivots, a_rank, b_lo, b_hi)
    if k < b_hi and b_pivots[k] == a_rank and b_dists[k] < best:
        best = b_dists[k]
    i, j = a_lo, b_lo
    while i < a_hi and j < b_hi:
        a = a_pivots[i]
        b = b_pivots[j]
        if a == b:
            d = a_dists[i] + b_dists[j]
            if d < best:
                best = d
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return best


class CompactTwoHopCover:
    """Queryable hop-bounded 2-hop labeling of a followee-follower network.

    ``distance``, ``exact_followee_set`` and ``reachability`` equal the
    dict oracle's (:class:`repro.testing.oracles.TwoHopCover`, with
    ``exact_followees=True``) in value and type.
    """

    def __init__(
        self,
        graph: DiGraph,
        max_hops: int,
        landmarks: array,
        rank_of: array,
        in_offsets: array,
        in_pivots: array,
        in_dists: bytes,
        out_offsets: array,
        out_pivots: array,
        out_dists: bytes,
    ) -> None:
        self._graph = graph
        self._max_hops = max_hops
        self._landmarks = landmarks
        self._rank_of = rank_of
        self._in_offsets = in_offsets
        self._in_pivots = in_pivots
        self._in_dists = in_dists
        self._out_offsets = out_offsets
        self._out_pivots = out_pivots
        self._out_dists = out_dists

    @property
    def max_hops(self) -> int:
        return self._max_hops

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        best = _label_distance(
            self._out_pivots,
            self._out_dists,
            self._out_offsets[source],
            self._out_offsets[source + 1],
            self._rank_of[source],
            self._in_pivots,
            self._in_dists,
            self._in_offsets[target],
            self._in_offsets[target + 1],
            self._rank_of[target],
        )
        return best if best <= self._max_hops else INF

    def _shortest_path_followees(
        self, source: int, target: int, d_st: float
    ) -> Iterator[int]:
        """Theorem 1 for ``d_st >= 2``: ``|F_s|`` distance queries."""
        one_closer = d_st - 1
        for followee in self._graph.out_neighbors(source):
            if self.distance(followee, target) == one_closer:
                yield followee

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1."""
        d_st = self.distance(source, target)
        if d_st == INF or d_st == 0:
            return set()
        if d_st == 1:
            return {target}
        return set(self._shortest_path_followees(source, target, d_st))

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` (Eq. 4) on the
        exact ``F_st``."""
        d_st = self.distance(source, target)
        if d_st == INF or d_st == 0:
            return 0.0
        if d_st == 1:
            return 1.0
        count = sum(1 for _ in self._shortest_path_followees(source, target, d_st))
        return reachability_weight(d_st, count, self._graph.out_degree(source))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def num_label_entries(self) -> int:
        """Total entries across all in- and out-labels."""
        return len(self._in_pivots) + len(self._out_pivots)

    def label_bytes(self) -> int:
        """Exact payload bytes of every buffer: ``itemsize * len`` per
        typed array plus the raw distance bytes — hand-computable from the
        label shape, and what ``repro bench`` holds against its budget."""
        arrays = (
            self._landmarks,
            self._rank_of,
            self._in_offsets,
            self._in_pivots,
            self._out_offsets,
            self._out_pivots,
        )
        total = sum(a.itemsize * len(a) for a in arrays)
        return total + len(self._in_dists) + len(self._out_dists)

    def size_bytes(self) -> int:
        """Alias of :meth:`label_bytes` (Table 5 column API parity)."""
        return self.label_bytes()


def _pruned_bfs(
    landmark: int,
    rank: int,
    neighbors: Callable[[int], Iterable[int]],
    grown: List[_Label],
    opposite: List[_Label],
    rank_of: array,
    max_hops: int,
) -> None:
    """Append ``(rank, d)`` to ``grown[x]`` for every ``x`` the landmark
    meets along ``neighbors`` at a distance ``d <= max_hops`` strictly
    shorter than ``grown[x]`` and ``opposite[landmark]`` already give.

    Entries of this rank cannot match during the search (the landmark
    holds none), so writing them as they are found prunes exactly like
    writing them at the end.
    """
    mark_pivots, mark_dists = opposite[landmark]
    mark_len = len(mark_pivots)
    seen = {landmark}
    frontier = [landmark]
    for length in range(1, max_hops + 1):
        labelled = []
        for node in frontier:
            for x in neighbors(node):
                if x in seen:
                    continue
                seen.add(x)
                pivots, dists = grown[x]
                if length < _label_distance(
                    pivots, dists, 0, len(pivots), rank_of[x],
                    mark_pivots, mark_dists, 0, mark_len, rank,
                ):
                    pivots.append(rank)
                    dists.append(length)
                    labelled.append(x)
        if not labelled:
            return
        frontier = labelled


def _flatten(labels: List[_Label]) -> Tuple[array, array, bytes]:
    """Concatenate per-node labels into ``(offsets, pivots, dists)``,
    freeing each node's staging as it is copied."""
    offsets = array("q", [0])
    pivots = array("i")
    dists = bytearray()
    for node, (node_pivots, node_dists) in enumerate(labels):
        pivots.extend(node_pivots)
        dists += node_dists
        offsets.append(len(pivots))
        labels[node] = None
    return offsets, pivots, bytes(dists)


def build_compact_two_hop_cover(
    graph: DiGraph, max_hops: int = DEFAULT_MAX_HOPS
) -> CompactTwoHopCover:
    """Label ``graph`` one landmark at a time, in descending total degree
    (Algorithm 2 line 1), straight into typed per-node buffers: peak
    memory is O(final index)."""
    check_byte_hops(max_hops)
    n = graph.num_nodes
    landmarks = array("i", sorted(graph.nodes(), key=graph.degree, reverse=True))
    rank_of = array("i", bytes(4 * n))
    for rank, landmark in enumerate(landmarks):
        rank_of[landmark] = rank
    label_in: List[_Label] = [(array("i"), bytearray()) for _ in range(n)]
    label_out: List[_Label] = [(array("i"), bytearray()) for _ in range(n)]
    for rank, landmark in enumerate(landmarks):
        _pruned_bfs(
            landmark, rank, graph.in_neighbors, label_out, label_in, rank_of, max_hops
        )
        _pruned_bfs(
            landmark, rank, graph.out_neighbors, label_in, label_out, rank_of, max_hops
        )
    in_offsets, in_pivots, in_dists = _flatten(label_in)
    out_offsets, out_pivots, out_dists = _flatten(label_out)
    return CompactTwoHopCover(
        graph,
        max_hops,
        landmarks=landmarks,
        rank_of=rank_of,
        in_offsets=in_offsets,
        in_pivots=in_pivots,
        in_dists=in_dists,
        out_offsets=out_offsets,
        out_pivots=out_pivots,
        out_dists=out_dists,
    )
