"""Compact directed graph used for the followee-follower network.

Nodes are dense integers ``0..n-1`` (user ids are mapped externally),
fixed by ``DiGraph(n)``; edges are only ever added.  The
structure keeps both out- and in-adjacency because Algorithm 2 needs backward
BFS (who can reach a landmark) as well as forward BFS.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.cache.epochs import Epoch


class DiGraph:
    """Directed graph over dense integer nodes.

    An edge ``(u, v)`` reads "u follows v": ``v`` is in ``u``'s followee list
    ``out_neighbors(u)`` and ``u`` is in ``v``'s follower list
    ``in_neighbors(v)``.  Parallel edges are collapsed; self-loops rejected.
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._out: List[List[int]] = [[] for _ in range(num_nodes)]
        self._in: List[List[int]] = [[] for _ in range(num_nodes)]
        self._out_sets: List[set] = [set() for _ in range(num_nodes)]
        self._num_edges = 0
        #: Structure version for ``repro.cache``: every edge insertion
        #: bumps it (tests/test_invariants.py), invalidating memoized
        #: interest shares.
        self.epoch = Epoch()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Tuple[int, int]]) -> "DiGraph":
        """Build a graph from an edge iterable."""
        graph = cls(num_nodes)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``u -> v``; returns False if it already existed."""
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        if not (0 <= u < len(self._out) and 0 <= v < len(self._out)):
            raise IndexError(f"edge ({u}, {v}) out of range for {len(self._out)} nodes")
        if v in self._out_sets[u]:
            return False
        self._out_sets[u].add(v)
        self._out[u].append(v)
        self._in[v].append(u)
        self._num_edges += 1
        self.epoch.bump()
        return True

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``u`` follows ``v``."""
        return v in self._out_sets[u]

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return len(self._out)

    def nodes(self) -> range:
        """Iterate node ids."""
        return range(len(self._out))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate all edges as ``(u, v)`` pairs."""
        for u, targets in enumerate(self._out):
            for v in targets:
                yield (u, v)

    def out_neighbors(self, u: int) -> Sequence[int]:
        """Followees of ``u`` (users that ``u`` subscribes to) — :math:`F_u`."""
        return self._out[u]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """Followers of ``v`` — :math:`N_{in}(v)` of Algorithm 2."""
        return self._in[v]

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def degree(self, u: int) -> int:
        """Total degree, the landmark ordering key of Algorithm 2."""
        return len(self._out[u]) + len(self._in[u])

    # ------------------------------------------------------------------ #
    # statistics (Table 5 columns)
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Node/edge counts and degree statistics as reported in Table 5."""
        n = self.num_nodes
        degrees = [self.degree(u) for u in self.nodes()]
        return {
            "nodes": n,
            "edges": self._num_edges,
            "avg_degree": (sum(degrees) / n) if n else 0.0,
            "max_degree": max(degrees, default=0),
        }

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge flipped."""
        return DiGraph.from_edges(self.num_nodes, ((v, u) for u, v in self.edges()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(nodes={self.num_nodes}, edges={self.num_edges})"
