"""Social-network substrate: directed graphs, weighted reachability, indexes.

The followee-follower network is a directed graph where an edge ``u -> v``
means *u follows v* (v is a followee of u).  All reachability machinery of
Sec. 4.1 of the paper lives here:

* :mod:`repro.graph.digraph` — the graph container.
* :mod:`repro.graph.traversal` — BFS levels and shortest-path DAGs.
* :mod:`repro.graph.reachability` — the exact per-pair weighted reachability
  of Eq. 4, used as ground truth for the indexes.
* :mod:`repro.graph.transitive_closure` — extended transitive closure,
  built incrementally (Algorithm 1).
* :mod:`repro.graph.compact_labels` — hop-bounded 2-hop labels in flat
  buffers + Theorem 1 (the index past the |V|² wall — docs/scaling.md).
* :mod:`repro.graph.dispatch` — :func:`build_reachability_index`, the one
  way production code obtains an index (closure or compact, by graph size).
* :mod:`repro.graph.generators` — synthetic followee-follower networks,
  including the streaming 100k–1M-user hub/faction worlds.

Two providers answer Eq. 4, the closure and the compact cover, and
:func:`build_reachability_index` is where a linker gets one.  The graph is
immutable and indexed as built; a changed graph is a rebuild, whose cost
is Fig. 5(b) / Table 5.

The slower, literal Algorithms 1–2 (followee sets in the labels) and
cached online BFS, which the shipped providers are tested against, live
in :mod:`repro.testing.oracles`.
"""

from repro.graph.compact_labels import (
    CompactTwoHopCover,
    build_compact_two_hop_cover,
)
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.graph.generators import (
    StreamingWorldProfile,
    stream_follow_edges,
    stream_tweet_events,
    streaming_world_graph,
    topical_social_graph,
    random_digraph,
)
from repro.graph.reachability import weighted_reachability
from repro.graph.transitive_closure import (
    TransitiveClosure,
    build_transitive_closure_incremental,
)

__all__ = [
    "CompactTwoHopCover",
    "DiGraph",
    "StreamingWorldProfile",
    "TransitiveClosure",
    "build_compact_two_hop_cover",
    "build_reachability_index",
    "build_transitive_closure_incremental",
    "random_digraph",
    "stream_follow_edges",
    "stream_tweet_events",
    "streaming_world_graph",
    "topical_social_graph",
    "weighted_reachability",
]
