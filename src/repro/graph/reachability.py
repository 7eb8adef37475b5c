"""Exact weighted reachability (Eq. 4) — the ground-truth definition.

``R(u, v) = (1 / d_uv) * |F_uv| / |F_u|`` for shortest-path distance
``d_uv >= 2``; ``R(u, v) = 1`` for a direct follow edge (Algorithm 1 line 3);
``R(u, v) = 0`` when ``v`` is not reachable from ``u`` within ``H`` hops.

The index structures (:mod:`repro.graph.transitive_closure`,
:mod:`repro.graph.compact_labels`) must agree with this definition; the test
suite checks them against it on random graphs.

The single-source variant :func:`weighted_reachability_from` is the inner
loop of :class:`repro.graph.online.OnlineReachability`, the index fallback
and the Fig. 5 benchmarks, so it is written as a *one-pass* propagation:
instead of re-walking the shortest-path DAG backwards once per target
(``O(|V| * |E|)`` worst case), followee sets are pushed *forward* through
the DAG as bitmasks — each first-hop followee owns one bit, and a node's
mask is the OR of its shortest-path predecessors' masks.  One BFS, one
integer OR per DAG edge, and ``|F_uv|`` falls out as a popcount.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.traversal import followees_on_shortest_paths, shortest_path_dag
from repro.obs.metrics import METRICS


def weighted_reachability(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> float:
    """Exact :math:`R(u, v)` by BFS over the shortest-path DAG.

    This is the naive per-pair computation the paper's Fig. 5(b) baseline
    performs |V|² times; the library uses it as ground truth and falls back
    to it when no index has been built.
    """
    if source == target:
        return 0.0
    if graph.has_edge(source, target):
        return 1.0
    dist, preds = shortest_path_dag(graph, source, max_hops)
    d_uv = dist.get(target)
    if d_uv is None:
        return 0.0
    followees = followees_on_shortest_paths(graph, source, dist, preds, target)
    num_followees = graph.out_degree(source)
    if num_followees == 0:
        return 0.0
    return (1.0 / d_uv) * (len(followees) / num_followees)


def weighted_reachability_from(
    graph: DiGraph, source: int, max_hops: int = DEFAULT_MAX_HOPS
) -> Dict[int, float]:
    """All nonzero :math:`R(source, v)` in one propagation over the DAG.

    Followee masks: first-hop node ``i`` starts with bit ``i`` set; every
    deeper node's mask is the OR of the masks of its shortest-path
    predecessors.  A predecessor at depth ``d - 1`` is fully settled before
    any depth-``d`` node is expanded (layered BFS), so each edge is looked
    at exactly once and :math:`|F_{uv}|` is the popcount of the final mask.
    """
    result: Dict[int, float] = {}
    first_hops = graph.out_neighbors(source)
    num_followees = len(first_hops)
    if num_followees == 0:
        return result
    METRICS.incr("graph.one_pass_bfs")
    dist: Dict[int, int] = {source: 0}
    masks: Dict[int, int] = {}
    frontier: deque = deque()
    for bit, v in enumerate(first_hops):
        dist[v] = 1
        masks[v] = 1 << bit
        frontier.append(v)
        result[v] = 1.0
    depth = 1
    while frontier and depth < max_hops:
        depth += 1
        for _ in range(len(frontier)):
            u = frontier.popleft()
            mask_u = masks[u]
            for v in graph.out_neighbors(u):
                known = dist.get(v)
                if known is None:
                    dist[v] = depth
                    masks[v] = mask_u
                    frontier.append(v)
                elif known == depth:
                    masks[v] |= mask_u
        # the layer just discovered is settled: every shortest-path
        # predecessor (depth - 1) has been expanded above
        inv = 1.0 / (depth * num_followees)
        for v in frontier:
            result[v] = masks[v].bit_count() * inv
    return result
