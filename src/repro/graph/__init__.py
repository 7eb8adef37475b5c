"""Social-network substrate: directed graphs, weighted reachability, indexes.

The followee-follower network is a directed graph where an edge ``u -> v``
means *u follows v* (v is a followee of u).  All reachability machinery of
Sec. 4.1 of the paper lives here:

* :mod:`repro.graph.digraph` — the graph container.
* :mod:`repro.graph.traversal` — BFS levels and shortest-path DAGs.
* :mod:`repro.graph.reachability` — the exact per-pair weighted reachability
  of Eq. 4, used as ground truth for the indexes.
* :mod:`repro.graph.transitive_closure` — extended transitive closure with
  the naive and the incremental (Algorithm 1) builders.
* :mod:`repro.graph.two_hop` — the extended 2-hop cover (Algorithm 2).
* :mod:`repro.graph.compact_labels` — the same cover in flat
  ``array``/``bytes`` buffers with an optional memory budget (the
  production index past the closure's |V|² wall — docs/scaling.md).
* :mod:`repro.graph.dispatch` — scale-aware index selection.
* :mod:`repro.graph.generators` — synthetic followee-follower networks,
  including the streaming 100k–1M-user hub/faction worlds.
"""

from repro.graph.compact_labels import (
    CompactTwoHopCover,
    build_compact_two_hop_cover,
)
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.graph.dynamic import DynamicTransitiveClosure
from repro.graph.generators import (
    SocialGraphConfig,
    StreamingChunk,
    StreamingWorldProfile,
    stream_follow_edges,
    stream_tweet_events,
    stream_user_chunks,
    streaming_world_graph,
    topical_social_graph,
    random_digraph,
)
from repro.graph.grail import GrailIndex, GrailPrunedReachability
from repro.graph.reachability import weighted_reachability
from repro.graph.transitive_closure import (
    TransitiveClosure,
    build_transitive_closure_incremental,
    build_transitive_closure_naive,
)
from repro.graph.two_hop import TwoHopCover, build_two_hop_cover

__all__ = [
    "CompactTwoHopCover",
    "DiGraph",
    "DynamicTransitiveClosure",
    "GrailIndex",
    "GrailPrunedReachability",
    "SocialGraphConfig",
    "StreamingChunk",
    "StreamingWorldProfile",
    "TransitiveClosure",
    "TwoHopCover",
    "build_compact_two_hop_cover",
    "build_reachability_index",
    "build_transitive_closure_incremental",
    "build_transitive_closure_naive",
    "build_two_hop_cover",
    "random_digraph",
    "stream_follow_edges",
    "stream_tweet_events",
    "stream_user_chunks",
    "streaming_world_graph",
    "topical_social_graph",
    "weighted_reachability",
]
