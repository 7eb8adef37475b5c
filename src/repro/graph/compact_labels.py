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
followee, against the same sets.  Eq. 8 asks one source about every
member of ``U*_e`` in a row, so a target's ``T_0..T_H`` are memoized and
the last source's out-run, split by distance, sits in a one-entry slot
with its followees' splits (filled once a query reaches the count).
Both hold pure functions of the buffers, outside ``label_bytes``; a
query reads the slot once and replaces it whole, so concurrent queries
share no partial state.

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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight

__all__ = ["CompactTwoHopCover", "build_compact_two_hop_cover"]

#: Sentinel distance for unreachable pairs.
INF = float("inf")

#: A node's rank, then its out-pivots at exactly 1, 2, .., H hops.
Split = Tuple
#: ``(source, its split, its followees' splits or None until needed)``.
Slot = Tuple[int, Split, Optional[Tuple[Split, ...]]]
#: Targets whose ``T_0..T_H`` the memo holds before it is cleared.
TARGET_MEMO_SIZE = 1024


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
        self._slot: Slot = (-1, (), None)
        self._targets: Dict[int, List[Set[int]]] = {}

    @property
    def max_hops(self) -> int:
        return self._max_hops

    def _target_sets(self, target: int) -> List[Set[int]]:
        """``[T_0, .., T_H]``, each a prefix of ``target``'s in-run plus its
        own rank, built once per target and memoized."""
        sets = self._targets.get(target)
        if sets is not None:
            return sets
        dists = self._in_dists
        start, hi = self._in_offsets[target], self._in_offsets[target + 1]
        sets = [{self._rank_of[target]}]
        for j in range(1, self._max_hops + 1):
            end = bisect_right(dists, j, start, hi)
            sets.append(sets[-1].union(self._in_pivots[start:end]))
            start = end
        if len(self._targets) >= TARGET_MEMO_SIZE:
            self._targets.clear()
        self._targets[target] = sets
        return sets

    def _split(self, node: int) -> Split:
        """``(rank, P_1, .., P_H)``: ``node``'s rank, then its out-pivots at
        exactly ``i`` hops (empty past its farthest)."""
        dists = self._out_dists
        start, hi = self._out_offsets[node], self._out_offsets[node + 1]
        split = [self._rank_of[node]]
        for hop in range(1, self._max_hops + 1):
            end = bisect_right(dists, hop, start, hi)
            split.append(self._out_pivots[start:end])
            start = end
        return tuple(split)

    def _source(self, source: int) -> Slot:
        """The slot of ``source``: the one held if it is ``source``'s, else
        a new one, which replaces it."""
        slot = self._slot
        if slot[0] != source:
            slot = (source, self._split(source), None)
            self._slot = slot
        return slot

    def _followees(self, slot: Slot) -> Tuple[Split, ...]:
        """The splits of the slot's followees, filled on first need."""
        if slot[2] is None:
            followees = self._graph.out_neighbors(slot[0])
            slot = (slot[0], slot[1], tuple(map(self._split, followees)))
            self._slot = slot
        return slot[2]

    @staticmethod
    def _within(split: Split, m: int, sets: List[Set[int]]) -> bool:
        """``d(node, t) <= m``: ``node``'s rank is in ``T_m``, or its pivots
        at some ``i <= m`` hops meet ``T_{m-i}`` (``split`` is the node's,
        ``sets`` the target's)."""
        if split[0] in sets[m]:
            return True
        for i in range(1, m + 1):
            if not sets[m - i].isdisjoint(split[i]):
                return True
        return False

    def _distance(self, split: Split, sets: List[Set[int]]) -> float:
        """The ``d <= H`` test, then ``m`` down from ``H - 1`` until
        ``d <= m`` fails."""
        if not self._within(split, self._max_hops, sets):
            return INF
        for m in range(self._max_hops - 1, 0, -1):
            if not self._within(split, m, sets):
                return m + 1
        return 1

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        split = self._source(source)[1]
        return self._distance(split, self._target_sets(target))

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1."""
        if source == target:
            return set()
        sets = self._target_sets(target)
        slot = self._source(source)
        d_st = self._distance(slot[1], sets)
        if d_st == INF:
            return set()
        landmarks = self._landmarks
        return {
            landmarks[split[0]]
            for split in self._followees(slot)
            if self._within(split, d_st - 1, sets)
        }

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` (Eq. 4) on the
        exact ``F_st``."""
        if source == target:
            return 0.0
        sets = self._target_sets(target)
        slot = self._source(source)
        d_st = self._distance(slot[1], sets)
        if d_st == INF:
            return 0.0
        if d_st == 1:
            return 1.0
        splits = self._followees(slot)
        count = sum(1 for split in splits if self._within(split, d_st - 1, sets))
        return reachability_weight(d_st, count, len(splits))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def num_label_entries(self) -> int:
        """Total entries across all in- and out-labels."""
        return len(self._in_pivots) + len(self._out_pivots)

    def label_bytes(self) -> int:
        """Exact payload bytes of every buffer: ``itemsize * len`` per
        typed array plus the raw distance bytes — hand-computable from the
        label shape, and what Table 5's large rows hold against 1 GiB."""
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
