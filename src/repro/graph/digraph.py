"""Compact directed graph used for the followee-follower network.

Nodes are dense integers ``0..n-1`` (user ids are mapped externally).  A
graph is built once, from its node count and edge list, and never edited:
the reachability indexes of Sec. 4.1 are precomputed over it, so a changed
graph is a new graph and a rebuild.  The structure keeps both out- and
in-adjacency because Algorithm 2 needs backward BFS (who can reach a
landmark) as well as forward BFS.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple


class DiGraph:
    """Immutable directed graph over dense integer nodes.

    An edge ``(u, v)`` reads "u follows v": ``v`` is in ``u``'s followee list
    ``out_neighbors(u)`` and ``u`` is in ``v``'s follower list
    ``in_neighbors(v)``.  Both lists keep the order edges were given in; a
    repeated edge is collapsed onto its first occurrence.  Self-loops,
    out-of-range ends and ends that are not ``int`` (``bool`` included)
    are rejected.
    """

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if type(num_nodes) is not int:
            raise TypeError(f"num_nodes must be an int, got {num_nodes!r}")
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        # one int object per node, shared by every tuple naming it
        node = list(range(num_nodes))
        out: list = [[] for _ in node]
        into: list = [[] for _ in node]
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge ({u!r}, {v!r}) ends must be ints")
            if u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise IndexError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            out[u].append(node[v])
            into[v].append(node[u])
        # a node's first sighting of a neighbour is its edge's first occurrence
        for lists in (out, into):
            for i, neighbours in enumerate(lists):
                lists[i] = tuple(dict.fromkeys(neighbours))
        self._out: Sequence[Tuple[int, ...]] = out
        self._in: Sequence[Tuple[int, ...]] = into
        self._num_edges = sum(map(len, out))

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``u`` follows ``v``."""
        return v in self._out[u]

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
        return DiGraph(self.num_nodes, ((v, u) for u, v in self.edges()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(nodes={self.num_nodes}, edges={self.num_edges})"
