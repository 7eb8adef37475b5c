"""Breadth-first traversal primitives shared by the reachability machinery.

These are deliberately small, allocation-light helpers: the naive transitive
closure baseline (Fig. 5(b)) and the exact reachability ground truth both sit
on top of them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.graph.digraph import DiGraph


def bfs_distances(graph: DiGraph, source: int, max_hops: int) -> Dict[int, int]:
    """Shortest-path hop distances from ``source`` within ``max_hops``.

    The source itself is not included (distance 0 is implicit); the paper's
    reachability semantics never ask for self-reachability.
    """
    distances: Dict[int, int] = {}
    frontier = deque([source])
    seen: Set[int] = {source}
    depth = 0
    while frontier and depth < max_hops:
        depth += 1
        for _ in range(len(frontier)):
            u = frontier.popleft()
            for v in graph.out_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    distances[v] = depth
                    frontier.append(v)
    return distances


def shortest_path_dag(
    graph: DiGraph, source: int, max_hops: int
) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
    """Distances plus shortest-path predecessors from ``source``.

    Returns ``(dist, preds)`` where ``preds[v]`` lists every node ``p`` with
    ``dist[p] + 1 == dist[v]`` and an edge ``p -> v`` — i.e. the DAG of *all*
    shortest paths, needed to recover the followee sets :math:`F_{uv}`.
    """
    dist: Dict[int, int] = {source: 0}
    preds: Dict[int, List[int]] = {}
    frontier = deque([source])
    depth = 0
    while frontier and depth < max_hops:
        depth += 1
        for _ in range(len(frontier)):
            u = frontier.popleft()
            for v in graph.out_neighbors(u):
                known = dist.get(v)
                if known is None:
                    dist[v] = depth
                    preds[v] = [u]
                    frontier.append(v)
                elif known == depth:
                    preds[v].append(u)
    del dist[source]
    return dist, preds


def followees_on_shortest_paths(
    graph: DiGraph,
    source: int,
    dist: Dict[int, int],
    preds: Dict[int, List[int]],
    target: int,
) -> Set[int]:
    """Followees of ``source`` on at least one shortest path to ``target``.

    Walks the shortest-path DAG backwards from ``target``; the first-hop
    nodes reached (direct followees of ``source``) form :math:`F_{uv}`.
    """
    if target not in dist:
        return set()
    first_hops: Set[int] = set()
    stack = [target]
    visited: Set[int] = {target}
    while stack:
        node = stack.pop()
        if dist.get(node) == 1:
            first_hops.add(node)
            continue
        for pred in preds.get(node, ()):
            if pred != source and pred not in visited:
                visited.add(pred)
                stack.append(pred)
    return first_hops
