"""Reference implementations the shipped algorithms are tested against.

Nothing here serves a mention: ``repro.graph`` ships the dense transitive
closure, the compact 2-hop cover and cached online BFS, and
:func:`repro.graph.build_reachability_index` picks between the first two; ``repro.core.recency`` ships Eq. 11 as one precomputed
operator per cluster.  These are the slower, more literal versions of the
same algorithms, kept as oracles for the property battery and the
paper's index tables (``benchmarks/``, Table 5's large rows included):

* :class:`TwoHopCover` / :func:`build_two_hop_cover` — Algorithm 2 and
  Theorem 2 (docs/algorithms.md) as dict-of-dicts with one Python ``set``
  of followees per out-entry; the shipped cover
  (:mod:`repro.graph.compact_labels`, the same labeling without the sets)
  must equal its ``distance``, ``exact_followee_set`` and
  ``reachability(exact_followees=True)``.
* :func:`build_transitive_closure_naive` — the paper's Fig. 5(b) strawman,
  one BFS per node pair, kept as per-pair dict rows.
* :func:`weighted_reachability_from_per_target` — the pre-one-pass
  single-source Eq. 4, one backward DAG walk per target.
* :func:`propagate_by_iteration` / :func:`propagated_recency_by_iteration`
  — Eq. 9–11 as the paper writes them: gather every cluster member's
  gated count, then sweep ``S^i = λ·S⁰ + (1-λ)·P·S^{i-1}`` in Python.
  ``propagated_recency`` must agree to 1e-12 on every normalized share.
* :func:`propagated_recency_by_member` — the gather ``propagated_recency``
  shipped before the merged timelines: one ``recent_count`` per cluster
  member and a Python ``sum`` per operator row.  Same products added in
  the same order, so the shipped function must equal it bit for bit.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.core.recency import RecencyPropagationNetwork
from repro.graph.compact_labels import INF
from repro.graph.digraph import DiGraph
from repro.graph.reachability import reachability_weight, weighted_reachability
from repro.graph.traversal import followees_on_shortest_paths, shortest_path_dag
from repro.kb.complemented import ComplementedKnowledgebase

__all__ = [
    "TwoHopCover",
    "build_transitive_closure_naive",
    "build_two_hop_cover",
    "propagate_by_iteration",
    "propagated_recency_by_iteration",
    "propagated_recency_by_member",
    "weighted_reachability_from_per_target",
]


class TwoHopCover:
    """Queryable extended 2-hop labeling of a followee-follower network."""

    def __init__(
        self,
        graph: DiGraph,
        label_in: List[Dict[int, int]],
        label_out: List[Dict[int, Tuple[int, Set[int]]]],
        max_hops: int,
    ) -> None:
        self._graph = graph
        self._label_in = label_in
        self._label_out = label_out
        self._max_hops = max_hops

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def max_hops(self) -> int:
        return self._max_hops

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        best = INF
        out_labels = self._label_out[source]
        in_labels = self._label_in[target]
        # pivot == target
        direct = out_labels.get(target)
        if direct is not None:
            best = direct[0]
        # pivot == source
        d_from_source = in_labels.get(source)
        if d_from_source is not None and d_from_source < best:
            best = d_from_source
        # interior pivots
        if len(out_labels) <= len(in_labels):
            for pivot, (d_sp, _) in out_labels.items():
                d_pt = in_labels.get(pivot)
                if d_pt is not None and d_sp + d_pt < best:
                    best = d_sp + d_pt
        else:
            for pivot, d_pt in in_labels.items():
                entry = out_labels.get(pivot)
                if entry is not None and entry[0] + d_pt < best:
                    best = entry[0] + d_pt
        # Eq. 5: d_st = inf when t is not reachable within H hops; label
        # segments can combine to a path longer than the horizon.
        return best if best <= self._max_hops else INF

    def query(self, source: int, target: int) -> Tuple[float, Set[int]]:
        """Eq. 5: ``(d_st, F_st)`` recovered from the labels.

        ``F_st`` unions the followee sets of all minimal-distance pivots
        (Theorem 2).  When the only minimal pivot is ``source`` itself the
        labels carry no followee evidence; the caller falls back to exact
        recovery (see :meth:`reachability`).
        """
        if source == target:
            return 0.0, set()
        best = self.distance(source, target)
        if best == INF:
            return INF, set()
        followees: Set[int] = set()
        out_labels = self._label_out[source]
        direct = out_labels.get(target)
        if direct is not None and direct[0] == best:
            followees |= direct[1]
        in_labels = self._label_in[target]
        for pivot, (d_sp, f_sp) in out_labels.items():
            d_pt = in_labels.get(pivot)
            if d_pt is not None and d_sp + d_pt == best:
                followees |= f_sp
        return best, followees

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1: followees at distance
        ``d_st - 1`` from ``target`` — costs ``O(|F_s|)`` distance queries."""
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
        self, source: int, target: int, exact_followees: bool = False
    ) -> float:
        """Weighted reachability ``R(source, target)`` from the labels.

        With ``exact_followees=False`` (the paper's scheme) the followee set
        comes from the stored labels, a cheap lower bound; otherwise it is
        recovered exactly per Theorem 1.
        """
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
        return reachability_weight(d_st, len(followees), num_followees)

    # ------------------------------------------------------------------ #
    # label access (read-only; used by tests)
    # ------------------------------------------------------------------ #
    def in_label(self, node: int) -> Dict[int, int]:
        """``L_in(node)`` — treat as read-only."""
        return self._label_in[node]

    def out_label(self, node: int) -> Dict[int, Tuple[int, Set[int]]]:
        """``L_out(node)`` — treat as read-only."""
        return self._label_out[node]

    # ------------------------------------------------------------------ #
    # statistics (Table 5 columns)
    # ------------------------------------------------------------------ #
    def num_label_entries(self) -> int:
        """Total entries across all in- and out-labels."""
        entries = sum(len(lbl) for lbl in self._label_in)
        entries += sum(len(lbl) for lbl in self._label_out)
        return entries

    def label_bytes(self) -> int:
        """Measured index footprint.

        Sums ``sys.getsizeof`` over the objects the labels actually hold:
        the per-node dicts (whose reported size already includes the
        allocated hash table), the ``(dist, followee_set)`` entry tuples,
        the followee sets themselves, and one int object per stored pivot
        key, distance, and followee member.  The previous estimate
        (``getsizeof(dict) + 16·len`` and ``24 + 8·|F|`` per entry)
        undercounted a CPython set by an order of magnitude — a ``set``
        with a few members costs ~216 bytes, not 24 — which is exactly the
        overhead that motivates :mod:`repro.graph.compact_labels`.
        """
        int_size = sys.getsizeof(1 << 16)  # any node id / distance int
        size = 0
        for lbl in self._label_in:
            size += sys.getsizeof(lbl) + 2 * int_size * len(lbl)
        for lbl in self._label_out:
            size += sys.getsizeof(lbl)
            for _, entry in lbl.items():
                followees = entry[1]
                size += 2 * int_size  # pivot key + stored distance
                size += sys.getsizeof(entry)  # the (dist, set) tuple
                size += sys.getsizeof(followees) + int_size * len(followees)
        return size

    def size_bytes(self) -> int:
        """Alias of :meth:`label_bytes` (kept for API parity; the old
        per-entry byte constants underestimated real CPython objects)."""
        return self.label_bytes()


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


def build_two_hop_cover(
    graph: DiGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    order: str = "degree",
    seed: int = 0,
) -> TwoHopCover:
    """Algorithm 2 — pruned landmark labeling with followee bookkeeping.

    ``order`` picks the landmark processing order, the main lever of PLL
    index size (Algorithm 2 line 1 uses descending degree):

    * ``"degree"`` — total degree, descending (the paper's choice);
    * ``"coverage"`` — degree *product* ``(in+1)·(out+1)``, descending — a
      cheap proxy for how many s→t pairs route through the node;
    * ``"random"`` — baseline showing how much ordering matters.
    """
    n = graph.num_nodes
    label_in: List[Dict[int, int]] = [dict() for _ in range(n)]
    label_out: List[Dict[int, Tuple[int, Set[int]]]] = [dict() for _ in range(n)]
    cover = TwoHopCover(graph, label_in, label_out, max_hops)
    landmarks = _landmark_order(graph, order, seed)
    for landmark in landmarks:
        _backward_bfs(graph, cover, label_out, landmark, max_hops)
        _forward_bfs(graph, cover, label_in, landmark, max_hops)
    return cover


def _backward_bfs(
    graph: DiGraph,
    cover: TwoHopCover,
    label_out: List[Dict[int, Tuple[int, Set[int]]]],
    landmark: int,
    max_hops: int,
) -> None:
    """Lines 5–29 of Algorithm 2: update ``L_out`` of nodes reaching the
    landmark, recording the followee through which each path departs."""
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
            current = cover.distance(s, landmark)
            if length < current:
                # Shorter path found: replace the entry, continue BFS.
                label_out[s][landmark] = (length, {node})
                if length < max_hops and s not in enqueued:
                    enqueued.add(s)
                    queue.append((s, length))
            elif length == current:
                # Equal-length path through a new followee: extend the set
                # but do not propagate (ancestors' distances are unchanged).
                entry = label_out[s].get(landmark)
                if entry is None:
                    _, f_known = cover.query(s, landmark)
                    if node not in f_known:
                        label_out[s][landmark] = (length, {node})
                elif node not in entry[1]:
                    entry[1].add(node)


def _forward_bfs(
    graph: DiGraph,
    cover: TwoHopCover,
    label_in: List[Dict[int, int]],
    landmark: int,
    max_hops: int,
) -> None:
    """Line 30 of Algorithm 2: update ``L_in`` of nodes the landmark
    reaches; only strict distance improvements are recorded."""
    queue = deque([(landmark, 0)])
    enqueued: Set[int] = {landmark}
    while queue:
        node, length = queue.popleft()
        length += 1
        if length > max_hops:
            continue
        for t in graph.out_neighbors(node):
            if t == landmark:
                continue
            if length < cover.distance(landmark, t):
                label_in[t][landmark] = length
                if length < max_hops and t not in enqueued:
                    enqueued.add(t)
                    queue.append((t, length))


class _PairRows:
    """The naive closure's answers: one dict of nonzero ``R(u, *)`` per
    source."""

    def __init__(self, rows: List[Dict[int, float]]) -> None:
        self._rows = rows

    def reachability(self, source: int, target: int) -> float:
        return self._rows[source].get(target, 0.0)


def build_transitive_closure_naive(
    graph: DiGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    pairs: Optional[Iterable[tuple]] = None,
) -> _PairRows:
    """The paper's naive baseline: an independent BFS per node pair.

    ``pairs`` restricts the computation to the given (source, target) pairs
    (the Fig. 5(b) bench uses this to extrapolate without running for hours);
    by default all ordered pairs are computed.  Deliberately does *not* reuse
    the single-source DAG across targets — that reuse is precisely the
    advantage the incremental algorithm demonstrates.
    """
    rows: List[Dict[int, float]] = [dict() for _ in graph.nodes()]
    if pairs is None:
        pairs = (
            (u, v) for u in graph.nodes() for v in graph.nodes() if u != v
        )
    for u, v in pairs:
        r = weighted_reachability(graph, u, v, max_hops)
        if r:
            rows[u][v] = r
    return _PairRows(rows)


def weighted_reachability_from_per_target(
    graph: DiGraph, source: int, max_hops: int = DEFAULT_MAX_HOPS
) -> Dict[int, float]:
    """The pre-one-pass implementation: one backward DAG walk per target.

    Kept as the oracle for the property tests and as the baseline
    Table 5's one-pass row (``benchmarks/test_table5_scale.py``) times
    the one-pass rewrite against; not used on any production path.
    """
    result: Dict[int, float] = {}
    num_followees = graph.out_degree(source)
    if num_followees == 0:
        return result
    dist, preds = shortest_path_dag(graph, source, max_hops)
    for target, d_uv in dist.items():
        if d_uv == 1:
            result[target] = 1.0
            continue
        followees = followees_on_shortest_paths(graph, source, dist, preds, target)
        result[target] = reachability_weight(d_uv, len(followees), num_followees)
    return result


def propagate_by_iteration(
    network: RecencyPropagationNetwork,
    initial: Dict[int, float],
    tolerance: Optional[float] = None,
) -> Dict[int, float]:
    """Eq. 11 by sweeping: the loop ``RecencyPropagationNetwork`` ran per
    mention before it folded the steps into one operator per cluster.

    Same contract as :meth:`RecencyPropagationNetwork.propagate`.  Runs
    ``network.max_iterations`` sweeps; ``tolerance`` restores the old
    early exit (stop once a sweep moves the cluster by less than that in
    L1), which the shipped fixed-``k`` operator does not have.
    """
    touched = {
        network.component_index(entity_id) for entity_id in initial
    } - {None}
    result = dict(initial)
    restart = network.propagation_lambda
    for index in touched:
        component = network.component_members(index)
        base = {e: initial.get(e, 0.0) for e in component}
        if not any(base.values()):
            continue
        scores = base
        for _ in range(network.max_iterations):
            delta = 0.0
            fresh: Dict[int, float] = {}
            for entity_id in component:
                incoming = sum(
                    weight * scores[neighbor]
                    for neighbor, weight in network.neighbors(entity_id)
                )
                value = restart * base[entity_id] + (1.0 - restart) * incoming
                fresh[entity_id] = value
                delta += abs(value - scores[entity_id])
            scores = fresh
            if tolerance is not None and delta < tolerance:
                break
        result.update(scores)
    return result


def propagated_recency_by_iteration(
    ckb: ComplementedKnowledgebase,
    network: RecencyPropagationNetwork,
    candidates: Sequence[int],
    now: float,
    window: float,
    burst_threshold: int,
    tolerance: Optional[float] = None,
) -> Dict[int, float]:
    """Eq. 9–11 end to end, the literal way: gate every member of every
    candidate's cluster, iterate, read the candidates off, normalize.
    The oracle for :func:`repro.core.recency.propagated_recency`."""
    initial: Dict[int, float] = {}
    for candidate in candidates:
        for entity_id in network.component(candidate):
            count = ckb.recent_count(entity_id, now, window)
            initial[entity_id] = float(count) if count >= burst_threshold else 0.0
    propagated = propagate_by_iteration(network, initial, tolerance)
    return _shares({entity_id: propagated[entity_id] for entity_id in candidates})


def _shares(values: Dict[int, float]) -> Dict[int, float]:
    """Eq. 9's normalization over the candidate set; all zero when nothing bursts."""
    total = sum(values.values())
    if total == 0.0:
        return dict.fromkeys(values, 0.0)
    return {entity_id: value / total for entity_id, value in values.items()}


def propagated_recency_by_member(
    ckb: ComplementedKnowledgebase,
    network: RecencyPropagationNetwork,
    candidates: Sequence[int],
    now: float,
    window: float,
    burst_threshold: int,
) -> Dict[int, float]:
    """The operator row-dot over per-entity reads: one ``recent_count`` per
    cluster member, the products summed left to right (a member below the
    burst threshold adds ``+0.0``, which changes no bit).  The bit-identity
    reference (``==``, not a tolerance) for ``propagated_recency``."""

    def gated(entity_id: int) -> float:
        count = ckb.recent_count(entity_id, now, window)
        return float(count) if count >= burst_threshold else 0.0

    values: Dict[int, float] = {}
    for entity_id in candidates:
        located = network.operator_row(entity_id)
        if located is None:
            values[entity_id] = gated(entity_id)
            continue
        members = network.component_members(located[0])
        values[entity_id] = float(
            sum(weight * gated(member) for weight, member in zip(located[1], members))
        )
    return _shares(values)
