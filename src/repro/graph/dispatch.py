"""Scale-aware reachability-index selection.

One entry point, :func:`build_reachability_index`, turns a follow graph
plus a :class:`~repro.config.LinkerConfig` into the reachability provider
the linker should score Eq. 4 against at that scale:

* at or below ``CLOSURE_MAX_NODES`` — the extended transitive closure
  (Algorithm 1): O(1) lookups, but a |V|²-bounded build;
* above it — the compact 2-hop cover (hop-bounded PLL + Theorem 1,
  :mod:`repro.graph.compact_labels`); both backends find the exact
  ``(d_st, |F_st|)`` and round Eq. 4 in the one
  :func:`~repro.graph.reachability.reachability_weight`, so link
  decisions are equal, ties included.

The chosen backend is recorded in an ``index.selected`` trace event, so a
production trace always shows *which* index served a linker and why.
"""

from __future__ import annotations

from repro.config import CLOSURE_MAX_NODES, DEFAULT_CONFIG, LinkerConfig
from repro.graph.compact_labels import build_compact_two_hop_cover
from repro.graph.digraph import DiGraph
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.obs.trace import TRACE

__all__ = ["build_reachability_index"]


def build_reachability_index(graph: DiGraph, config: LinkerConfig = DEFAULT_CONFIG):
    """Build the reachability provider ``config`` selects for ``graph``.

    Every returned object satisfies the
    :class:`repro.core.interest.ReachabilityProvider` protocol; the
    backends differ in build cost and memory, not in link decisions
    (``tests/test_differential.py``, whose Eq. 4 tie only equal rounding
    keeps).
    """
    backend = config.select_index_backend(graph.num_nodes)
    TRACE.event(
        "index.selected",
        backend=backend,
        requested=config.index_backend,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        closure_max_nodes=CLOSURE_MAX_NODES,
    )
    if backend == "closure":
        return build_transitive_closure_incremental(graph)
    return build_compact_two_hop_cover(graph)
