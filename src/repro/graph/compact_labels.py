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
followee, against the same sets; ``reachability`` and
``exact_followee_set`` share that one loop.

Eq. 8 asks one source about every member of ``U*_e`` in a row, and the
authors of a stream recur and share followees, so both sides of the test
are memoized per node.  A target's ``T_0..T_H`` are built once.  A
node's split ``(rank, P_1..P_H)`` is cut from its out-run as ``array``
slices once per turn (one source's queries in a row) and kept for that
turn only; the split memo counts the turns, and the third turn that
needs the split memoizes it hashed, as frozensets.  A followee's split then serves every
source that follows it, and the ``isdisjoint`` tests compare two hashed
sets.  Hashing costs about four array tests and leaves five objects for
the garbage collector, so a node needed in one or two turns (most nodes
of random pairs) is never hashed.  The memos hold pure functions of the
buffers, sit outside ``label_bytes`` and the pickle, and are cleared
whole when full; each entry is written whole, so concurrent queries
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
from typing import Callable, Dict, Iterable, List, Set, Tuple, Union

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import check_byte_hops, reachability_weight

__all__ = ["CompactTwoHopCover", "build_compact_two_hop_cover"]

#: Sentinel distance for unreachable pairs.
INF = float("inf")

#: A node's rank, then its out-pivots at exactly 1, 2, .., H hops: ``array``
#: slices when cut, frozensets when hashed.
Split = Tuple
#: Targets whose ``T_0..T_H`` the memo holds before it is cleared.
TARGET_MEMO_SIZE = 1024
#: Nodes whose hashed split (or turn count) the memo holds before it is
#: cleared.
SPLIT_MEMO_SIZE = 4096
#: Turns that cut a node's split before the next one that needs it hashes
#: it.
CUT_TURNS = 2
#: Query state: rebuilt from the buffers on demand, never pickled.
_MEMOS = ("_turn", "_splits", "_targets")


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
        self._start_memos()

    def _start_memos(self) -> None:
        #: The source of the latest query and the splits its turn has cut.
        self._turn: Tuple[int, Dict[int, Split]] = (-1, {})
        self._splits: Dict[int, Union[int, Split]] = {}
        self._targets: Dict[int, List[Set[int]]] = {}

    def __getstate__(self) -> Dict[str, object]:
        """The buffers only: a pickle is the same after any queries."""
        return {k: v for k, v in self.__dict__.items() if k not in _MEMOS}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._start_memos()

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

    def _cuts(self, source: int) -> Dict[int, Split]:
        """The splits cut during ``source``'s turn: a fresh turn when it
        differs from the last query's source."""
        turn = self._turn
        if turn[0] != source:
            turn = self._turn = (source, {})
        return turn[1]

    def _split(self, node: int, cuts: Dict[int, Split]) -> Split:
        """``(rank, P_1, .., P_H)``: ``node``'s rank, then its out-pivots at
        exactly ``i`` hops (empty past its farthest).  The first
        ``CUT_TURNS`` turns that need it cut ``array`` slices, kept in
        ``cuts``, and count themselves in the memo; the next memoizes the
        split hashed."""
        memo = self._splits.get(node)
        if type(memo) is tuple:
            return memo
        cut = cuts.get(node)
        if cut is not None:
            return cut
        dists = self._out_dists
        start, hi = self._out_offsets[node], self._out_offsets[node + 1]
        cut = [self._rank_of[node]]
        for hop in range(1, self._max_hops + 1):
            end = bisect_right(dists, hop, start, hi)
            cut.append(self._out_pivots[start:end])
            start = end
        turns = memo or 0
        if turns < CUT_TURNS:
            memoized, split = turns + 1, tuple(cut)
            cuts[node] = split
        else:
            memoized = split = (cut[0], *map(frozenset, cut[1:]))
        if len(self._splits) >= SPLIT_MEMO_SIZE:
            self._splits.clear()
        self._splits[node] = memoized
        return split

    def _distance(self, split: Split, sets: List[Set[int]]) -> float:
        """The ``d <= H`` test, then ``m`` down from ``H - 1`` until
        ``d <= m`` fails: ``d(x, t) <= m`` iff ``x``'s rank is in ``T_m``
        or its pivots at some ``i <= m`` hops meet ``T_{m-i}``."""
        rank = split[0]
        for m in range(self._max_hops, 0, -1):
            if rank in sets[m]:
                continue
            for i in range(1, m + 1):
                if not sets[m - i].isdisjoint(split[i]):
                    break
            else:
                return INF if m == self._max_hops else m + 1
        return 1

    def _on_path(
        self, source: int, d_st: int, sets: List[Set[int]], cuts: Dict[int, Split]
    ) -> List[int]:
        """Theorem 1's :math:`F_{st}` for ``2 <= d_st <= H``: the followees
        ``f`` of ``source`` with ``d(f, t) <= d_st - 1``."""
        m = d_st - 1
        near = sets[m]
        hops = tuple(zip(range(1, d_st), sets[m - 1 :: -1]))
        on_path = []
        for followee in self._graph.out_neighbors(source):
            split = self._split(followee, cuts)
            if split[0] in near:
                on_path.append(followee)
                continue
            for i, farther in hops:
                if not farther.isdisjoint(split[i]):
                    on_path.append(followee)
                    break
        return on_path

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        split = self._split(source, self._cuts(source))
        return self._distance(split, self._target_sets(target))

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1."""
        if source == target:
            return set()
        sets = self._target_sets(target)
        cuts = self._cuts(source)
        d_st = self._distance(self._split(source, cuts), sets)
        if d_st == INF:
            return set()
        if d_st == 1:
            return {target}
        return set(self._on_path(source, d_st, sets, cuts))

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` (Eq. 4) on the
        exact ``F_st``."""
        if source == target:
            return 0.0
        sets = self._target_sets(target)
        cuts = self._cuts(source)
        d_st = self._distance(self._split(source, cuts), sets)
        if d_st == INF:
            return 0.0
        if d_st == 1:
            return 1.0
        on_path = self._on_path(source, d_st, sets, cuts)
        followees = len(self._graph.out_neighbors(source))
        return reachability_weight(d_st, len(on_path), followees)

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
