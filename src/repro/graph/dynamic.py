"""Incremental maintenance of the weighted-reachability closure.

The paper's abstract promises incremental algorithms for both the
*computation* and the *maintenance* cost of the indexes: followee-follower
networks change continuously (users follow/are followed), and rebuilding
the closure from scratch per follow event is hopeless at scale.

:class:`DynamicTransitiveClosure` supports **edge insertion** (the dominant
event — unfollows are rare) with a filtered affected-source strategy:

1. a new edge ``u -> v`` can only change reachability *from* nodes that
   reach ``u`` within ``H - 1`` hops, plus ``u`` itself — found by one
   backward BFS;
2. for each candidate source ``s`` a sound skip test runs against the
   maintained distance rows: any path from ``s`` through the new edge to
   some target ``t`` has length at least ``d(s,u) + 1 + d(v,t)``, so if
   that bound strictly exceeds both ``d_old(s,t)`` and the hop horizon for
   every ``t``, neither distances nor shortest-path DAGs from ``s`` can
   change and the row is kept verbatim;
3. only the surviving sources get their row recomputed by one
   single-source BFS (exact Eq. 4 semantics).

The object answers queries through the
:class:`~repro.core.interest.ReachabilityProvider` protocol, so a live
linker can sit directly on top of it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.reachability import (
    reachability_weight,
    shortest_path_followee_counts,
)
from repro.graph.transitive_closure import TransitiveClosure


class DynamicTransitiveClosure:
    """A weighted-reachability closure that follows graph mutations."""

    def __init__(self, graph: DiGraph, max_hops: int = DEFAULT_MAX_HOPS) -> None:
        self._graph = graph
        self._max_hops = max_hops
        self._reach: List[Dict[int, float]] = []
        self._dist: List[Dict[int, int]] = []
        for source in graph.nodes():
            dist_row, reach_row = self._compute_row(source)
            self._dist.append(dist_row)
            self._reach.append(reach_row)
        self._insertions = 0
        self._rows_recomputed = 0
        self._rows_skipped = 0

    # ------------------------------------------------------------------ #
    # queries (ReachabilityProvider protocol)
    # ------------------------------------------------------------------ #
    @property
    def max_hops(self) -> int:
        return self._max_hops

    @property
    def graph(self) -> DiGraph:
        return self._graph

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability ``R(source, target)`` — O(1) lookup."""
        if source == target:
            return 0.0
        return self._reach[source].get(target, 0.0)

    def distance(self, source: int, target: int) -> float:
        """Hop distance within ``H``, or ``inf``."""
        if source == target:
            return 0.0
        return self._dist[source].get(target, float("inf"))

    def reachable_from(self, source: int) -> Dict[int, float]:
        return dict(self._reach[source])

    def snapshot(self) -> TransitiveClosure:
        """Freeze the current state as an immutable closure."""
        return TransitiveClosure(
            self._graph.num_nodes,
            self._max_hops,
            sparse=[dict(row) for row in self._reach],
        )

    # ------------------------------------------------------------------ #
    # maintenance statistics
    # ------------------------------------------------------------------ #
    @property
    def insertions(self) -> int:
        """Number of edge insertions applied."""
        return self._insertions

    @property
    def rows_recomputed(self) -> int:
        """Total source rows recomputed across all insertions."""
        return self._rows_recomputed

    @property
    def rows_skipped(self) -> int:
        """Candidate rows proven unchanged by the skip test."""
        return self._rows_skipped

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #
    def add_node(self) -> int:
        """Append a fresh (isolated) user."""
        node = self._graph.add_node()
        self._reach.append({})
        self._dist.append({})
        return node

    def add_edge(self, u: int, v: int) -> bool:
        """Insert a follow edge and repair every row that can change.

        Returns ``False`` (and changes nothing) when the edge already
        existed.  ``u``'s own row always changes (``|F_u|`` renormalizes
        Eq. 4 even when no distance moves); ancestors are filtered with the
        path-length lower bound described in the module docstring.
        """
        if not self._graph.add_edge(u, v):
            return False
        self._insertions += 1
        dist_v = self._dist[v]
        for source in self._affected_candidates(u):
            if source != u and not self._row_can_change(source, u, dist_v, v):
                self._rows_skipped += 1
                continue
            self._dist[source], self._reach[source] = self._compute_row(source)
            self._rows_recomputed += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete a follow edge (unfollow) and repair affected rows.

        A deletion can only change rows whose old shortest paths *used* the
        edge: source ``s`` is affected when
        ``d_old(s, u) + 1 + d_old(v, t) == d_old(s, t)`` for some target
        ``t`` (including ``t = v``).  ``u``'s own row always changes —
        ``|F_u|`` shrinks, renormalizing Eq. 4.
        """
        # candidates must be collected against the *old* distances; the
        # backward BFS to u does not traverse the edge being removed, and
        # v's own row cannot use an edge that re-enters v, so both remain
        # valid snapshots of the pre-deletion state.
        candidates = self._affected_candidates(u)
        dist_v = dict(self._dist[v])
        if not self._graph.remove_edge(u, v):
            return False
        self._insertions += 1
        for source in candidates:
            if source != u and not self._deletion_can_change(source, u, dist_v, v):
                self._rows_skipped += 1
                continue
            self._dist[source], self._reach[source] = self._compute_row(source)
            self._rows_recomputed += 1
        return True

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _deletion_can_change(
        self, source: int, u: int, dist_v: Dict[int, int], v: int
    ) -> bool:
        """Was the deleted edge on any shortest path from ``source``?"""
        dist_s = self._dist[source]
        to_u = dist_s.get(u)
        if to_u is None:
            return False
        base = to_u + 1
        if dist_s.get(v) == base:
            return True
        for target, d_vt in dist_v.items():
            if target != source and dist_s.get(target) == base + d_vt:
                return True
        return False

    def _compute_row(self, source: int) -> Tuple[Dict[int, int], Dict[int, float]]:
        """One BFS: distances and Eq.-4 reachability from ``source``."""
        dist: Dict[int, int] = {}
        reach: Dict[int, float] = {}
        followees = self._graph.out_degree(source)
        for target, distance, on_path in shortest_path_followee_counts(
            self._graph, source, self._max_hops
        ):
            dist[target] = distance
            reach[target] = reachability_weight(distance, on_path, followees)
        return dist, reach

    def _affected_candidates(self, u: int) -> Set[int]:
        """``u`` plus nodes reaching ``u`` within ``H - 1`` hops."""
        affected: Set[int] = {u}
        frontier = deque([u])
        depth = 0
        while frontier and depth < self._max_hops - 1:
            depth += 1
            for _ in range(len(frontier)):
                node = frontier.popleft()
                for predecessor in self._graph.in_neighbors(node):
                    if predecessor not in affected:
                        affected.add(predecessor)
                        frontier.append(predecessor)
        return affected

    def _row_can_change(
        self, source: int, u: int, dist_v: Dict[int, int], v: int
    ) -> bool:
        """Can the new edge ``u -> v`` alter ``source``'s row?

        Any path from ``source`` through the new edge to a target ``t`` has
        length at least ``d(source, u) + 1 + d(v, t)``.  The row can only
        change when that bound reaches some target at ``<= d_old(source, t)``
        (new shortest *or equal* path — equal paths extend followee sets)
        or reaches a previously-unreachable target within the horizon.
        """
        dist_s = self._dist[source]
        to_u = dist_s.get(u)
        if to_u is None:
            return False  # cannot reach the new edge at all
        base = to_u + 1
        horizon = self._max_hops
        # target v itself
        old_to_v = dist_s.get(v)
        if base <= horizon and (old_to_v is None or base <= old_to_v):
            return True
        # targets beyond v
        for target, d_vt in dist_v.items():
            length = base + d_vt
            if length > horizon:
                continue
            old = dist_s.get(target)
            if old is None or length <= old:
                if target != source:
                    return True
        return False


def replay_follow_events(
    closure: DynamicTransitiveClosure,
    events: List[tuple],
    limit: Optional[int] = None,
) -> int:
    """Apply a stream of ``(u, v)`` follow events; returns edges inserted."""
    inserted = 0
    for index, (u, v) in enumerate(events):
        if limit is not None and index >= limit:
            break
        if closure.add_edge(u, v):
            inserted += 1
    return inserted
