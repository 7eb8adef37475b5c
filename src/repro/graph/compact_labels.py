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
from ``t`` — so Eq. 4 is evaluated on the exact ``F_st``, the set the
transitive closure materializes.  The paper's Algorithm 2 proper, which
recovers a *subset* of ``F_st`` from followee sets stored in the labels
(Theorem 2), is :class:`repro.testing.oracles.TwoHopCover`.

Layout, CSR-style: ``landmarks[r]`` is the node processed at rank ``r``
and ``rank_of`` its inverse; ``in_offsets`` / ``out_offsets`` (``q``)
slice ``in_pivots`` / ``out_pivots`` (``i``) and the parallel distance
bytes ``in_dists`` / ``out_dists``.  Pivots are stored as *ranks*, each
node's run ordered by (distance, rank): the pivots within ``j`` hops are
a prefix one ``bisect_right`` on the distance bytes finds.

A query tests sets instead of merging runs.  With ``T_j`` the set of
``t``'s in-pivots within ``j`` hops plus ``t``'s rank, ``d(x, t) <= m``
iff ``x``'s rank is in ``T_m`` or, for some ``i <= m``, ``x``'s
out-pivots at exactly ``i`` hops meet ``T_{m-i}`` (a C-level
``isdisjoint``, stopping at the first shared pivot).  ``distance`` is the
least such ``m``: the ``d <= H`` test first (most random pairs fail it),
then ``m`` down from ``H - 1``.  No followee of ``s`` is closer to ``t``
than ``d_st - 1``, so Theorem 1's count is ``d(f, t) <= d_st - 1`` per
followee, against the same sets.

The build prunes by the same kind of test.  Each BFS first loads the
landmark's opposite label into per-level sets (PLL's root-label load),
so each reached node costs one set lookup plus one ``isdisjoint`` over
its staging run.  A staging run is an ``array('i')`` of keys ``d * n +
rank``, so sorting it gives (distance, rank) order; this needs
``(max_hops + 1) * n < 2**31``, past which ``array`` raises
``OverflowError`` rather than wrapping.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Callable, Iterable, List, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight

__all__ = ["CompactTwoHopCover", "build_compact_two_hop_cover"]

#: Sentinel distance for unreachable pairs.
INF = float("inf")


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

    def _target_sets(self, target: int) -> List[Set[int]]:
        """``[T_0, .., T_{H-1}]``, each a prefix of ``target``'s in-run
        plus its own rank; no query needs ``T_H``."""
        dists = self._in_dists
        start, hi = self._in_offsets[target : target + 2]
        sets = [{self._rank_of[target]}]
        for j in range(1, self._max_hops):
            end = bisect_right(dists, j, start, hi)
            sets.append(sets[-1].union(self._in_pivots[start:end]))
            start = end
        return sets

    def _meets(self, node: int, m: int, sets: List[Set[int]]) -> bool:
        """Some pivot ``i <= m`` hops out of ``node`` is in ``T_{m-i}``."""
        dists = self._out_dists
        start, hi = self._out_offsets[node : node + 2]
        for i in range(1, m + 1):
            if start == hi:
                return False
            end = bisect_right(dists, i, start, hi)
            if not sets[m - i].isdisjoint(self._out_pivots[start:end]):
                return True
            start = end
        return False

    def _within(self, node: int, m: int, sets: List[Set[int]]) -> bool:
        """``d(node, t) <= m`` for ``m < H`` and ``sets`` those of ``t``."""
        return self._rank_of[node] in sets[m] or self._meets(node, m, sets)

    def _distance(self, source: int, target: int, sets: List[Set[int]]) -> float:
        """The ``d <= H`` test (``T_H`` is all of ``target``'s in-run),
        then ``m`` down from ``H - 1`` until ``d <= m`` fails."""
        lo, hi = self._in_offsets[target : target + 2]
        near = self._rank_of[source] in self._in_pivots[lo:hi]
        if not (near or self._meets(source, self._max_hops, sets)):
            return INF
        for m in range(self._max_hops - 1, 0, -1):
            if not self._within(source, m, sets):
                return m + 1
        return 1

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        return self._distance(source, target, self._target_sets(target))

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1."""
        if source == target:
            return set()
        sets = self._target_sets(target)
        d_st = self._distance(source, target, sets)
        if d_st == INF:
            return set()
        followees = self._graph.out_neighbors(source)
        return {f for f in followees if self._within(f, d_st - 1, sets)}

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` (Eq. 4) on the
        exact ``F_st``."""
        if source == target:
            return 0.0
        sets = self._target_sets(target)
        d_st = self._distance(source, target, sets)
        if d_st == INF:
            return 0.0
        if d_st == 1:
            return 1.0
        followees = self._graph.out_neighbors(source)
        count = sum(1 for f in followees if self._within(f, d_st - 1, sets))
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
    grown: List[array],
    opposite: List[array],
    rank_of: array,
    max_hops: int,
) -> None:
    """Stage ``length * n + rank`` in ``grown[x]`` for every ``x`` the
    landmark meets along ``neighbors`` at a ``length <= max_hops``
    strictly shorter than ``grown[x]`` and ``opposite[landmark]`` give.

    At each level ``near`` holds the landmark's pivots within ``length``
    and ``meets`` the keys ``dx * n + p`` with ``dx >= 1`` and ``dx +
    d(p, landmark) <= length``, so ``x`` is pruned iff its rank is in
    ``near`` or its run meets ``meets``.  Entries of this rank are in no
    run the sets can match, so staging them as they are found prunes
    exactly like staging them at the end.
    """
    n = len(rank_of)
    by_dist: List[List[int]] = [[] for _ in range(max_hops + 1)]
    for entry in opposite[landmark]:
        by_dist[entry // n].append(entry % n)
    near: Set[int] = set()
    meets: Set[int] = set()
    seen = {landmark}
    frontier = [landmark]
    for length in range(1, max_hops + 1):
        near.update(by_dist[length])
        for d in range(1, length):
            meets.update([(length - d) * n + p for p in by_dist[d]])
        key = length * n + rank
        labelled = []
        for node in frontier:
            for x in neighbors(node):
                if x in seen:
                    continue
                seen.add(x)
                run = grown[x]
                if rank_of[x] in near or not meets.isdisjoint(run):
                    continue
                run.append(key)
                labelled.append(x)
        if not labelled:
            return
        frontier = labelled


def _flatten(labels: List[array]) -> Tuple[array, array, bytes]:
    """Decode per-node staging runs into ``(offsets, pivots, dists)``:
    sorted keys are (distance, rank)-ordered.  Each node's staging is
    freed as it is copied."""
    n = len(labels)
    offsets = array("q", [0])
    pivots = array("i")
    dists = bytearray()
    for node, run in enumerate(labels):
        keys = sorted(run)
        pivots.extend([key % n for key in keys])
        dists.extend([key // n for key in keys])
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
    label_in = [array("i") for _ in range(n)]
    label_out = [array("i") for _ in range(n)]
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
