"""Extended 2-hop cover for weighted reachability (Sec. 4.1.1, Algorithm 2)
in flat ``array``/``bytes`` buffers (DESIGN.md §7, docs/scaling.md).

A pruned-landmark labeling (PLL) in the style of Akiba et al. SIGMOD'13,
extended so that queries recover not only the shortest-path distance
``d_st`` but also the followee set ``F_st`` needed by Eq. 4:

* ``L_in(v)  = {pivot: d_pivot_v}``   — pivots that can reach ``v``;
* ``L_out(v) = {pivot: (d_v_pivot, F_v_pivot)}`` — pivots reachable from
  ``v`` together with the followees of ``v`` on shortest paths to the pivot.

Landmarks are processed in descending degree order.  For each landmark a
*backward* BFS updates ``L_out`` of the nodes that reach it (recording the
followee through which each shortest path leaves, lines 5–29 of Algorithm 2)
and a *forward* BFS updates ``L_in`` of the nodes it reaches (line 30).

Queries (Eq. 5) intersect ``L_out(s) ∪ {s}`` with ``L_in(t) ∪ {t}`` and,
per Theorem 2, union the followee sets of every pivot achieving the minimal
distance.  Distances are exact within the ``H``-hop horizon; the recovered
followee set is guaranteed to be a *subset* of the exact one (a pivot exists
on at least one shortest path, not necessarily on all of them) and is
non-empty for every reachable pair — see DESIGN.md.  The optional
``exact_followees`` query mode recomputes ``F_st`` exactly from per-followee
distance queries (Theorem 1) at an ``O(|F_s|)`` label-lookup cost.

The literal dict-of-dicts form of these labels (one Python ``set`` per
out-entry, :class:`repro.testing.oracles.TwoHopCover`) costs ~100 bytes
per entry and ~220 per set, which breaks long before the |V|² closure
does.  This module stores the *same* labels in flat typed buffers,
CSR-style:

* ``landmarks[r]`` — node id of the landmark processed at rank ``r``;
  ``rank_of[v]`` is the inverse permutation.  Per-node label entries are
  keyed by landmark *rank*, so each node's pivot list is sorted by
  construction (landmark ``r`` writes all of its entries before landmark
  ``r+1`` starts) and queries intersect two sorted runs.
* in-labels: ``in_offsets`` (``q``) slices ``in_pivots`` (``i``) and the
  parallel distance bytes ``in_dists``.
* out-labels: ``out_offsets``/``out_pivots``/``out_dists`` likewise, plus
  a followee pool: entry ``k`` owns ``f_pool[f_offsets[k]:f_offsets[k+1]]``.

Two classes of out-entry store no pool span:

* distance-1 entries — their followee set is provably ``{landmark}``
  (Algorithm 2 line 7 only ever records the landmark itself at length 1),
  so the set is synthesized at query time, bit-identically, for free;
* entries pruned by the **memory budget** — when ``memory_budget_bytes``
  is set and the full pool would not fit, followee sets are dropped for
  the *least-central* landmarks first (highest rank upward) until the
  index fits.  A pruned entry's span is empty (impossible for a stored
  set, which is never empty), and :meth:`CompactTwoHopCover.query` falls
  back to **lazy recovery**: the exact ``F_v,landmark`` via Theorem 1
  from distance queries alone.  Distances are never pruned, so
  ``distance`` stays bit-identical under any budget; a recovered set is a
  superset of the dropped label subset and still a subset of the exact
  ``F_st``, and ``reachability(..., exact_followees=True)`` is unchanged.

Without a budget the stored label data is identical to the dict oracle's,
so every query — ``distance``, ``query``, ``exact_followee_set``,
``reachability`` in both modes — returns bit-identical values; the
randomized battery in ``tests/test_compact_labels.py`` enforces this.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph

__all__ = ["CompactTwoHopCover", "build_compact_two_hop_cover"]

#: Sentinel distance for unreachable pairs.
INF = float("inf")


def _landmark_order(graph: DiGraph, order: str, seed: int) -> List[int]:
    if order == "degree":
        return sorted(graph.nodes(), key=graph.degree, reverse=True)
    if order == "coverage":
        return sorted(
            graph.nodes(),
            key=lambda v: (graph.in_degree(v) + 1) * (graph.out_degree(v) + 1),
            reverse=True,
        )
    if order == "random":
        nodes = list(graph.nodes())
        random.Random(seed).shuffle(nodes)
        return nodes
    raise ValueError(f"unknown landmark order {order!r}")


def _index_of(pivots, lo: int, hi: int, rank: int) -> int:
    """Index of ``rank`` in the sorted run ``pivots[lo:hi]``, or ``-1``."""
    k = bisect_left(pivots, rank, lo, hi)
    if k < hi and pivots[k] == rank:
        return k
    return -1


class CompactTwoHopCover:
    """Queryable extended 2-hop labeling of a followee-follower network.

    Query API and semantics match the dict oracle
    (:class:`repro.testing.oracles.TwoHopCover`) exactly (and
    bit-identically when no memory budget pruned followee pools).
    ``exact_reachability=True`` makes :meth:`reachability` default to the
    Theorem-1 exact followee recovery — the mode the scale-aware dispatch
    uses so compact-backed linkers score Eq. 4 on the same ``F_st`` the
    transitive closure materializes.
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
        f_offsets: array,
        f_pool: array,
        exact_reachability: bool = False,
        memory_budget_bytes: Optional[int] = None,
        followee_rank_cutoff: Optional[int] = None,
        pruned_followee_entries: int = 0,
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
        self._f_offsets = f_offsets
        self._f_pool = f_pool
        self._exact_reachability = exact_reachability
        self._memory_budget_bytes = memory_budget_bytes
        self._followee_rank_cutoff = followee_rank_cutoff
        self._pruned_followee_entries = pruned_followee_entries

    # ------------------------------------------------------------------ #
    # queries (same contracts as the dict oracle)
    # ------------------------------------------------------------------ #
    @property
    def max_hops(self) -> int:
        return self._max_hops

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        out_pivots, out_dists = self._out_pivots, self._out_dists
        in_pivots, in_dists = self._in_pivots, self._in_dists
        so, eo = self._out_offsets[source], self._out_offsets[source + 1]
        si, ei = self._in_offsets[target], self._in_offsets[target + 1]
        best = INF
        # pivot == target
        k = _index_of(out_pivots, so, eo, self._rank_of[target])
        if k >= 0:
            best = out_dists[k]
        # pivot == source
        k = _index_of(in_pivots, si, ei, self._rank_of[source])
        if k >= 0 and in_dists[k] < best:
            best = in_dists[k]
        # interior pivots: both runs are sorted by rank — one merge pass
        i, j = so, si
        while i < eo and j < ei:
            a = out_pivots[i]
            b = in_pivots[j]
            if a == b:
                d = out_dists[i] + in_dists[j]
                if d < best:
                    best = d
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best if best <= self._max_hops else INF

    def query(self, source: int, target: int) -> Tuple[float, Set[int]]:
        """Eq. 5: ``(d_st, F_st)`` recovered from the labels (Theorem 2)."""
        if source == target:
            return 0.0, set()
        best = self.distance(source, target)
        if best == INF:
            return INF, set()
        followees: Set[int] = set()
        out_pivots, out_dists = self._out_pivots, self._out_dists
        in_pivots, in_dists = self._in_pivots, self._in_dists
        so, eo = self._out_offsets[source], self._out_offsets[source + 1]
        si, ei = self._in_offsets[target], self._in_offsets[target + 1]
        k = _index_of(out_pivots, so, eo, self._rank_of[target])
        if k >= 0 and out_dists[k] == best:
            followees |= self._followee_set(source, k)
        i, j = so, si
        while i < eo and j < ei:
            a = out_pivots[i]
            b = in_pivots[j]
            if a == b:
                if out_dists[i] + in_dists[j] == best:
                    followees |= self._followee_set(source, i)
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best, followees

    def _followee_set(self, node: int, entry: int) -> Set[int]:
        """Stored pool span, synthesized ``{landmark}`` at distance 1, or
        lazy Theorem-1 recovery when the memory budget pruned the span."""
        fs, fe = self._f_offsets[entry], self._f_offsets[entry + 1]
        if fe > fs:
            return set(self._f_pool[fs:fe])
        landmark = self._landmarks[self._out_pivots[entry]]
        dist = self._out_dists[entry]
        if dist == 1:
            return {landmark}
        return {
            f
            for f in self._graph.out_neighbors(node)
            if self.distance(f, landmark) == dist - 1
        }

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1 — ``O(|F_s|)`` label queries."""
        d_st = self.distance(source, target)
        if d_st == INF or d_st == 0:
            return set()
        if d_st == 1:
            return {target}
        return {
            f
            for f in self._graph.out_neighbors(source)
            if self.distance(f, target) == d_st - 1
        }

    def reachability(
        self, source: int, target: int, exact_followees: Optional[bool] = None
    ) -> float:
        """Weighted reachability ``R(source, target)`` (Eq. 4).

        ``exact_followees=None`` defers to the ``exact_reachability``
        construction flag.  With ``False`` (the paper's scheme) the
        followee set comes from the stored labels, a cheap lower bound;
        with ``True`` it is recovered exactly per Theorem 1.
        """
        if exact_followees is None:
            exact_followees = self._exact_reachability
        if source == target:
            return 0.0
        d_st, followees = self.query(source, target)
        if d_st == INF:
            return 0.0
        if d_st == 1:
            return 1.0
        num_followees = self._graph.out_degree(source)
        if num_followees == 0:
            return 0.0
        if exact_followees or not followees:
            followees = self.exact_followee_set(source, target)
        return (1.0 / d_st) * (len(followees) / num_followees)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def num_label_entries(self) -> int:
        """Total entries across all in- and out-labels."""
        return len(self._in_pivots) + len(self._out_pivots)

    def label_bytes(self) -> int:
        """Exact payload bytes of every label buffer.

        ``itemsize * len`` per typed array plus the raw distance bytes —
        no estimation involved, and hand-computable from the label shape
        (the accounting the memory budget is enforced against).
        """
        arrays = (
            self._landmarks,
            self._rank_of,
            self._in_offsets,
            self._in_pivots,
            self._out_offsets,
            self._out_pivots,
            self._f_offsets,
            self._f_pool,
        )
        total = sum(a.itemsize * len(a) for a in arrays)
        return total + len(self._in_dists) + len(self._out_dists)

    def size_bytes(self) -> int:
        """Alias of :meth:`label_bytes` (Table 5 column API parity)."""
        return self.label_bytes()

    def backbone_bytes(self) -> int:
        """Bytes of everything except the followee pool — the part the
        memory budget can never prune (distances must stay exact)."""
        return self.label_bytes() - self._f_pool.itemsize * len(self._f_pool)

    def stats(self) -> Dict[str, object]:
        """Index shape summary for benches and debugging."""
        return {
            "nodes": self._graph.num_nodes,
            "label_entries": self.num_label_entries(),
            "followee_pool_entries": len(self._f_pool),
            "pruned_followee_entries": self._pruned_followee_entries,
            "followee_rank_cutoff": self._followee_rank_cutoff,
            "memory_budget_bytes": self._memory_budget_bytes,
            "backbone_bytes": self.backbone_bytes(),
            "label_bytes": self.label_bytes(),
        }

    @property
    def memory_budget_bytes(self) -> Optional[int]:
        return self._memory_budget_bytes

    @property
    def pruned_followee_entries(self) -> int:
        return self._pruned_followee_entries


class _StagingLabels:
    """Per-node growable label buffers used while the index is built.

    Keeps the build peak at O(final index) instead of O(dict cover):
    pivot ranks in per-node ``array('i')``, distances in ``bytearray``,
    followee sets as frozen sorted tuples (``None`` for distance-1 entries,
    whose set is always ``{landmark}``).
    """

    def __init__(self, graph: DiGraph, max_hops: int, landmarks: List[int]) -> None:
        if max_hops > 255:
            raise ValueError(
                "compact labels store distances as single bytes; "
                f"max_hops={max_hops} exceeds 255"
            )
        n = graph.num_nodes
        self.graph = graph
        self.max_hops = max_hops
        self.landmarks = array("i", landmarks)
        self.rank_of = array("i", bytes(4 * n))
        for rank, landmark in enumerate(landmarks):
            self.rank_of[landmark] = rank
        self.in_pivots: List[array] = [array("i") for _ in range(n)]
        self.in_dists: List[bytearray] = [bytearray() for _ in range(n)]
        self.out_pivots: List[array] = [array("i") for _ in range(n)]
        self.out_dists: List[bytearray] = [bytearray() for _ in range(n)]
        self.out_fsets: List[List[Optional[Tuple[int, ...]]]] = [
            [] for _ in range(n)
        ]

    def append_in(self, node: int, rank: int, dist: int) -> None:
        self.in_pivots[node].append(rank)
        self.in_dists[node].append(dist)

    def append_out(self, node: int, rank: int, dist: int, followees) -> None:
        self.out_pivots[node].append(rank)
        self.out_dists[node].append(dist)
        # a distance-1 followee set is always exactly {landmark}: store
        # nothing and let queries synthesize it
        self.out_fsets[node].append(
            None if dist == 1 else tuple(sorted(followees))
        )

    # -- pruning queries used by the landmark BFS -- #
    def distance(self, source: int, target: int) -> float:
        if source == target:
            return 0.0
        out_pivots, out_dists = self.out_pivots[source], self.out_dists[source]
        in_pivots, in_dists = self.in_pivots[target], self.in_dists[target]
        best = INF
        k = _index_of(out_pivots, 0, len(out_pivots), self.rank_of[target])
        if k >= 0:
            best = out_dists[k]
        k = _index_of(in_pivots, 0, len(in_pivots), self.rank_of[source])
        if k >= 0 and in_dists[k] < best:
            best = in_dists[k]
        i, j = 0, 0
        no, ni = len(out_pivots), len(in_pivots)
        while i < no and j < ni:
            a = out_pivots[i]
            b = in_pivots[j]
            if a == b:
                d = out_dists[i] + in_dists[j]
                if d < best:
                    best = d
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best if best <= self.max_hops else INF

    def followees(self, source: int, target: int, best: int) -> Set[int]:
        """Followee union over minimal pivots — ``query``'s second
        component, for the equal-length pruning check."""
        found: Set[int] = set()
        out_pivots, out_dists = self.out_pivots[source], self.out_dists[source]
        in_pivots, in_dists = self.in_pivots[target], self.in_dists[target]
        k = _index_of(out_pivots, 0, len(out_pivots), self.rank_of[target])
        if k >= 0 and out_dists[k] == best:
            found |= self._fset(source, k)
        i, j = 0, 0
        no, ni = len(out_pivots), len(in_pivots)
        while i < no and j < ni:
            a = out_pivots[i]
            b = in_pivots[j]
            if a == b:
                if out_dists[i] + in_dists[j] == best:
                    found |= self._fset(source, i)
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return found

    def _fset(self, node: int, k: int) -> Set[int]:
        stored = self.out_fsets[node][k]
        if stored is None:
            return {self.landmarks[self.out_pivots[node][k]]}
        return set(stored)

    # ------------------------------------------------------------------ #
    def finalize(
        self, memory_budget_bytes: Optional[int], exact_reachability: bool
    ) -> CompactTwoHopCover:
        n = self.graph.num_nodes
        total_in = sum(len(p) for p in self.in_pivots)
        total_out = sum(len(p) for p in self.out_pivots)
        # distance backbone: everything except the followee pool — never
        # pruned, so distances are bit-identical under any budget
        backbone = (
            4 * len(self.landmarks)
            + 4 * len(self.rank_of)
            + 8 * (n + 1) * 2  # in/out offsets
            + 5 * total_in  # pivots + distance byte
            + 5 * total_out
            + 8 * (total_out + 1)  # f_offsets
        )
        cutoff = n  # keep every rank's pool by default
        if memory_budget_bytes is not None:
            if backbone > memory_budget_bytes:
                raise ValueError(
                    f"memory budget {memory_budget_bytes} bytes is below the "
                    f"distance backbone ({backbone} bytes); followee pruning "
                    "cannot shrink the index further"
                )
            pool_bytes = array("q", bytes(8 * n))
            for node in range(n):
                pivots = self.out_pivots[node]
                for k, fset in enumerate(self.out_fsets[node]):
                    if fset is not None:
                        pool_bytes[pivots[k]] += 4 * len(fset)
            remaining = memory_budget_bytes - backbone
            cutoff = 0
            for rank in range(n):
                if pool_bytes[rank] > remaining:
                    break
                remaining -= pool_bytes[rank]
                cutoff = rank + 1

        in_offsets = array("q", [0])
        in_pivots = array("i")
        in_dists = bytearray()
        for node in range(n):
            in_pivots.extend(self.in_pivots[node])
            in_dists += self.in_dists[node]
            in_offsets.append(len(in_pivots))
            self.in_pivots[node] = None
            self.in_dists[node] = None

        out_offsets = array("q", [0])
        out_pivots = array("i")
        out_dists = bytearray()
        f_offsets = array("q", [0])
        f_pool = array("i")
        pruned = 0
        for node in range(n):
            pivots = self.out_pivots[node]
            out_pivots.extend(pivots)
            out_dists += self.out_dists[node]
            out_offsets.append(len(out_pivots))
            for k, fset in enumerate(self.out_fsets[node]):
                if fset is not None:
                    if pivots[k] < cutoff:
                        f_pool.extend(fset)
                    else:
                        pruned += 1
                f_offsets.append(len(f_pool))
            self.out_pivots[node] = None
            self.out_dists[node] = None
            self.out_fsets[node] = None

        return CompactTwoHopCover(
            self.graph,
            self.max_hops,
            landmarks=self.landmarks,
            rank_of=self.rank_of,
            in_offsets=in_offsets,
            in_pivots=in_pivots,
            in_dists=bytes(in_dists),
            out_offsets=out_offsets,
            out_pivots=out_pivots,
            out_dists=bytes(out_dists),
            f_offsets=f_offsets,
            f_pool=f_pool,
            exact_reachability=exact_reachability,
            memory_budget_bytes=memory_budget_bytes,
            followee_rank_cutoff=cutoff if memory_budget_bytes is not None else None,
            pruned_followee_entries=pruned,
        )


def build_compact_two_hop_cover(
    graph: DiGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    order: str = "degree",
    seed: int = 0,
    memory_budget_bytes: Optional[int] = None,
    exact_reachability: bool = False,
) -> CompactTwoHopCover:
    """Algorithm 2 directly into compact buffers, one landmark at a time.

    Produces the same labels as the dict oracle
    (:func:`repro.testing.oracles.build_two_hop_cover`): each landmark's
    backward/forward BFS records its would-be writes in a local dict (the
    landmark only ever touches its *own* entries, so a local record always
    wins over the staged labels — the identical pruning decisions in a
    different order of bookkeeping) and appends them to the staging
    buffers when the BFS finishes.  Peak memory is O(final index), never
    O(dict-of-dicts).

    ``order`` picks the landmark processing order, the main lever of PLL
    index size: ``"degree"`` (total degree, descending — Algorithm 2
    line 1), ``"coverage"`` (degree product ``(in+1)·(out+1)``) or
    ``"random"`` (seeded baseline).
    """
    landmarks = _landmark_order(graph, order, seed)
    stage = _StagingLabels(graph, max_hops, landmarks)
    for rank, landmark in enumerate(landmarks):
        # backward BFS: out-labels of nodes that reach the landmark
        local_out: Dict[int, Tuple[int, Set[int]]] = {}
        queue = deque([(landmark, 0)])
        enqueued: Set[int] = {landmark}
        while queue:
            node, length = queue.popleft()
            length += 1
            if length > max_hops:
                continue
            for s in graph.in_neighbors(node):
                if s == landmark:
                    continue
                entry = local_out.get(s)
                current = entry[0] if entry is not None else stage.distance(s, landmark)
                if length < current:
                    local_out[s] = (length, {node})
                    if length < max_hops and s not in enqueued:
                        enqueued.add(s)
                        queue.append((s, length))
                elif length == current:
                    if entry is None:
                        if node not in stage.followees(s, landmark, length):
                            local_out[s] = (length, {node})
                    elif node not in entry[1]:
                        entry[1].add(node)
        for s, (dist, followees) in local_out.items():
            stage.append_out(s, rank, dist, followees)
        # forward BFS: in-labels of nodes the landmark reaches
        local_in: Dict[int, int] = {}
        queue = deque([(landmark, 0)])
        enqueued = {landmark}
        while queue:
            node, length = queue.popleft()
            length += 1
            if length > max_hops:
                continue
            for t in graph.out_neighbors(node):
                if t == landmark:
                    continue
                current = local_in.get(t)
                if current is None:
                    current = stage.distance(landmark, t)
                if length < current:
                    local_in[t] = length
                    if length < max_hops and t not in enqueued:
                        enqueued.add(t)
                        queue.append((t, length))
        for t, dist in local_in.items():
            stage.append_in(t, rank, dist)
    return stage.finalize(memory_budget_bytes, exact_reachability)
