"""Exact weighted reachability (Eq. 4) — the ground-truth definition.

``R(u, v) = (1 / d_uv) * |F_uv| / |F_u|`` for shortest-path distance
``d_uv >= 2``; ``R(u, v) = 1`` for a direct follow edge (Algorithm 1 line 3);
``R(u, v) = 0`` when ``v`` is not reachable from ``u`` within ``H`` hops.

Algorithm 1 and Theorem 1 produce two integers per pair, ``d_uv`` and
``|F_uv|``.  Each of the two providers
(:mod:`repro.graph.transitive_closure`, :mod:`repro.graph.compact_labels`)
and every oracle finds those two its own way
and hands them to :func:`reachability_weight`, the one place Eq. 4 is
rounded — so which index answers cannot change which entity wins, and the
test suite holds the providers to this definition with ``==``.

:func:`shortest_path_followee_counts` is the one single-source walk, a
*one-pass* propagation: instead of re-walking the shortest-path DAG
backwards once per target (``O(|V| * |E|)`` worst case), followee sets are
pushed *forward* through the DAG as bitmasks — each first-hop followee owns
one bit, and a node's mask is the OR of its shortest-path predecessors'
masks.  One BFS, one integer OR per DAG edge, and ``|F_uv|`` falls out as a
popcount.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.traversal import followees_on_shortest_paths, shortest_path_dag
from repro.obs.metrics import METRICS

#: Largest hop horizon an index that stores distances as single bytes takes.
MAX_BYTE_HOPS = 255


def check_byte_hops(max_hops: int) -> None:
    """Reject a horizon whose distances would wrap in a one-byte index."""
    if max_hops > MAX_BYTE_HOPS:
        raise ValueError(
            "this index stores distances as single bytes; "
            f"max_hops={max_hops} exceeds {MAX_BYTE_HOPS}"
        )


def reachability_weight(distance: int, on_path: int, followees: int) -> float:
    """Eq. 4 from ``d_uv``, ``|F_uv|`` and ``|F_u|``.

    One correctly-rounded division of two exact integers, so equal
    rationals give equal floats whichever triple they come from
    (``2/(2*5) == 3/(3*5)``) — an Eq. 1 tie stays a tie on every provider.
    """
    if distance == 1:
        return 1.0
    return on_path / (distance * followees)


def weighted_reachability(
    graph: DiGraph, source: int, target: int, max_hops: int = DEFAULT_MAX_HOPS
) -> float:
    """Exact :math:`R(u, v)` by BFS over the shortest-path DAG.

    This is the naive per-pair computation the paper's Fig. 5(b) baseline
    performs |V|² times; the library uses it as ground truth only.
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
    return reachability_weight(d_uv, len(followees), graph.out_degree(source))


def shortest_path_followee_counts(
    graph: DiGraph, source: int, max_hops: int
) -> Iterator[Tuple[int, int, int]]:
    """``(v, d_uv, |F_uv|)`` for every ``v`` within ``max_hops`` of ``source``.

    Followee masks: first-hop node ``i`` starts with bit ``i`` set; every
    deeper node's mask is the OR of the masks of its shortest-path
    predecessors.  A predecessor at depth ``d - 1`` is fully settled before
    any depth-``d`` node is expanded (layered BFS), so each edge is looked
    at exactly once and :math:`|F_{uv}|` is the popcount of the final mask.
    """
    dist: Dict[int, int] = {source: 0}
    masks: Dict[int, int] = {}
    frontier: deque = deque()
    for bit, v in enumerate(graph.out_neighbors(source)):
        dist[v] = 1
        masks[v] = 1 << bit
        frontier.append(v)
        yield v, 1, 1
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
        for v in frontier:
            yield v, depth, masks[v].bit_count()


def weighted_reachability_from(
    graph: DiGraph, source: int, max_hops: int = DEFAULT_MAX_HOPS
) -> Dict[int, float]:
    """All nonzero :math:`R(source, v)` from one walk."""
    followees = graph.out_degree(source)
    if followees:
        METRICS.incr("graph.one_pass_bfs")
    return {
        v: reachability_weight(distance, on_path, followees)
        for v, distance, on_path in shortest_path_followee_counts(
            graph, source, max_hops
        )
    }
