"""Scale-aware index dispatch: same decisions, observable choice.

``LinkerConfig.select_index_backend`` moves where Eq. 4 is answered
(closure below the node threshold, compact 2-hop cover above), never
*what* the linker decides — these tests pin link-decision parity across
backends at and around the threshold, assert the ``index.selected``
trace breadcrumb, and cover the serving tenants' use of the same dispatch.
They also pin the shelf itself: ``repro.graph`` ships four providers, and
every one of them answers Eq. 4 like the ground truth and the oracles of
:mod:`repro.testing.oracles`.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.graph
from repro.config import DAY, DEFAULT_CONFIG, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.graph.compact_labels import CompactTwoHopCover
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.graph.dynamic import DynamicTransitiveClosure
from repro.graph.online import OnlineReachability
from repro.graph.reachability import weighted_reachability
from repro.graph.transitive_closure import TransitiveClosure
from repro.obs.trace import TRACE
from repro.testing.oracles import (
    build_transitive_closure_naive,
    build_two_hop_cover,
    weighted_reachability_from_per_target,
)

from conftest import random_graph


@pytest.fixture(autouse=True)
def clean_trace():
    TRACE.reset()
    TRACE.enable()
    yield
    TRACE.reset()
    TRACE.disable()


def _selection_events():
    return [
        event
        for span in TRACE.drain()
        for event in span.events
        if event.name == "index.selected"
    ]


#: provider -> worst ``|R - weighted_reachability|`` it may show: the dense
#: closure stores R in float32, the one-pass BFS online serves multiplies
#: in another order, and the other two evaluate Eq. 4 as the ground truth
#: does (0.0 is ``==``).
PROVIDER_TOLERANCE = {
    "closure": 1e-6,
    "compact": 0.0,
    "dynamic-snapshot": 0.0,
    "online": 1e-12,
}

SHIPPED_PROVIDERS = {
    "closure": lambda graph, hops: build_reachability_index(
        graph, LinkerConfig(index_backend="closure", max_hops=hops)
    ),
    "compact": lambda graph, hops: build_reachability_index(
        graph, LinkerConfig(index_backend="compact", max_hops=hops)
    ),
    "online": lambda graph, hops: OnlineReachability(graph, max_hops=hops),
    "dynamic-snapshot": lambda graph, hops: DynamicTransitiveClosure(
        graph, max_hops=hops
    ).snapshot(),
}


class TestShippedShelf:
    """Four providers, one protocol, one answer to Eq. 4."""

    def test_graph_exports_are_pinned(self):
        assert sorted(repro.graph.__all__) == [
            "CompactTwoHopCover",
            "DiGraph",
            "DynamicTransitiveClosure",
            "OnlineReachability",
            "SocialGraphConfig",
            "StreamingChunk",
            "StreamingWorldProfile",
            "TransitiveClosure",
            "build_compact_two_hop_cover",
            "build_reachability_index",
            "build_transitive_closure_incremental",
            "random_digraph",
            "stream_follow_edges",
            "stream_tweet_events",
            "stream_user_chunks",
            "streaming_world_graph",
            "topical_social_graph",
            "weighted_reachability",
        ]

    @pytest.mark.parametrize("provider", sorted(SHIPPED_PROVIDERS))
    @pytest.mark.parametrize(
        "nodes, edges, seed, hops", [(14, 40, 2, 4), (22, 110, 5, 3), (30, 70, 9, 2)]
    )
    def test_provider_matches_ground_truth_and_oracles(
        self, provider, nodes, edges, seed, hops
    ):
        graph = random_graph(nodes, edges, seed)
        index = SHIPPED_PROVIDERS[provider](graph, hops)
        naive = build_transitive_closure_naive(graph, max_hops=hops)
        cover = build_two_hop_cover(graph, max_hops=hops)
        for s in graph.nodes():
            row = weighted_reachability_from_per_target(graph, s, max_hops=hops)
            for t in graph.nodes():
                got = index.reachability(s, t)
                truth = weighted_reachability(graph, s, t, hops)
                assert got == pytest.approx(
                    truth, abs=PROVIDER_TOLERANCE[provider], rel=0.0
                ), (s, t)
                assert naive.reachability(s, t) == truth, (s, t)
                assert cover.reachability(s, t, exact_followees=True) == truth, (s, t)
                assert (row.get(t, 0.0) if s != t else 0.0) == pytest.approx(
                    truth, abs=1e-12
                ), (s, t)


class TestNoInterestBound:
    """Appendix D on every provider: an author with no social path into a
    community scores every candidate at or under ``beta + gamma``."""

    @pytest.mark.parametrize("provider", sorted(SHIPPED_PROVIDERS))
    def test_authors_without_a_path_stay_under_the_bound(self, provider, tiny_ckb):
        """``U*_e`` is drawn from {10, 11, 12}.  Author 6 follows nobody;
        author 0's followees 1 and 7 sit three hops from 10 and 11 (and
        nowhere near 12), past ``max_hops = 2``."""
        config = LinkerConfig(burst_threshold=2, influential_users=2, max_hops=2)
        graph = DiGraph.from_edges(
            13,
            [(0, 1), (1, 2), (2, 3), (3, 10), (0, 7), (7, 8), (8, 9), (9, 11)],
        )

        def link(name, author):
            linker = SocialTemporalLinker(
                tiny_ckb,
                graph,
                config=config,
                reachability=SHIPPED_PROVIDERS[name](graph, config.max_hops),
            )
            return linker.link("jordan", user=author, now=100 * DAY)

        for author in (6, 0):
            result = link(provider, author)
            assert len(result.ranked) == 3
            assert result.degradation is None
            for candidate in result.ranked:
                assert candidate.interest == 0.0
                assert candidate.score <= config.no_interest_bound
            assert result.ranked == link("closure", author).ranked


class TestConfigValidation:
    def test_defaults(self):
        assert DEFAULT_CONFIG.index_backend == "auto"
        assert DEFAULT_CONFIG.closure_max_nodes == 2000

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            LinkerConfig(index_backend="quantum")

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            LinkerConfig(closure_max_nodes=-1)


class TestSelection:
    def test_auto_at_and_around_threshold(self):
        config = LinkerConfig(closure_max_nodes=100)
        assert config.select_index_backend(99) == "closure"
        assert config.select_index_backend(100) == "closure"
        assert config.select_index_backend(101) == "compact"

    @pytest.mark.parametrize("backend", ["closure", "compact"])
    def test_forced_backend_short_circuits(self, backend):
        config = LinkerConfig(index_backend=backend, closure_max_nodes=100)
        assert config.select_index_backend(2) == backend
        assert config.select_index_backend(10_000) == backend


class TestDispatchBuild:
    def test_builds_closure_below_threshold(self):
        graph = random_graph(30, 120, seed=1)
        index = build_reachability_index(graph, LinkerConfig(closure_max_nodes=100))
        assert isinstance(index, TransitiveClosure)

    def test_builds_compact_above_threshold(self):
        graph = random_graph(30, 120, seed=1)
        index = build_reachability_index(graph, LinkerConfig(closure_max_nodes=10))
        assert isinstance(index, CompactTwoHopCover)

    def test_forced_two_hop(self):
        """The dict cover is a test oracle, not a selectable backend: the
        config rejects the value before any dispatch happens."""
        with pytest.raises(ValueError):
            LinkerConfig(index_backend="two-hop")

    def test_selection_is_traced(self):
        graph = random_graph(30, 120, seed=1)
        config = LinkerConfig(closure_max_nodes=10)
        with TRACE.span("test.dispatch"):
            build_reachability_index(graph, config)
        events = _selection_events()
        assert len(events) == 1
        attrs = events[0].attributes
        assert attrs["backend"] == "compact"
        assert attrs["requested"] == "auto"
        assert attrs["nodes"] == 30
        assert attrs["edges"] == graph.num_edges
        assert attrs["closure_max_nodes"] == 10


class TestDecisionParity:
    """Same world, both backends, identical link decisions."""

    def _requests(self, context, cap=120):
        return [
            (m.surface, t.user, t.timestamp)
            for t in context.test_dataset.tweets
            for m in t.mentions
        ][:cap]

    def _decisions(self, context, provider):
        """Link decisions: ranked entity ids + degradation (scores are
        compared approximately — the dense closure stores R in float32
        while the compact cover computes float64-exact values, so ~1e-8
        score drift is expected and must never reorder a ranking)."""
        linker = SocialTemporalLinker(
            context.ckb,
            context.world.graph,
            config=context.config,
            reachability=provider,
            propagation_network=context.propagation_network,
        )
        return [
            linker.link(surface, user, now)
            for surface, user, now in self._requests(context)
        ]

    def test_closure_and_compact_link_identically(self, small_context):
        nodes = small_context.world.graph.num_nodes
        below = dataclasses.replace(
            small_context.config, closure_max_nodes=nodes
        )
        above = dataclasses.replace(
            small_context.config, closure_max_nodes=nodes - 1
        )
        closure = build_reachability_index(small_context.world.graph, below)
        compact = build_reachability_index(small_context.world.graph, above)
        assert isinstance(closure, TransitiveClosure)
        assert isinstance(compact, CompactTwoHopCover)
        via_closure = self._decisions(small_context, closure)
        via_compact = self._decisions(small_context, compact)
        assert len(via_closure) == len(via_compact) > 0
        for a, b in zip(via_closure, via_compact):
            assert [c.entity_id for c in a.ranked] == [
                c.entity_id for c in b.ranked
            ]
            assert a.degradation == b.degradation
            for ca, cb in zip(a.ranked, b.ranked):
                assert ca.score == pytest.approx(cb.score, abs=1e-6)

    def test_context_auto_provider_matches_default(self, small_context):
        """``social_temporal()`` (and so ``repro evaluate``) scores against
        the context's one cached, auto-dispatched index — the closure at
        this world's size."""
        linker = small_context.social_temporal()._linker
        assert linker.reachability_provider is small_context.reachability_index
        assert isinstance(linker.reachability_provider, TransitiveClosure)


class TestServeDispatch:
    """``repro serve`` tenants get their index from the same dispatch."""

    def test_tenant_above_threshold_serves_from_the_compact_cover(self, small_world):
        from repro.serve.tenants import TenantSpec, build_tenant_registry

        specs = [TenantSpec(name="alpha", deadline_ms=None)]
        above = dataclasses.replace(
            DEFAULT_CONFIG, closure_max_nodes=small_world.graph.num_nodes - 1
        )
        below_registry, context = build_tenant_registry(small_world, specs)
        above_registry, _ = build_tenant_registry(small_world, specs, config=above)
        via_closure = below_registry.get("alpha").linker
        via_compact = above_registry.get("alpha").linker
        assert isinstance(via_closure.reachability_provider, TransitiveClosure)
        assert isinstance(via_compact.reachability_provider, CompactTwoHopCover)
        requests = [
            (m.surface, t.user, t.timestamp)
            for t in context.test_dataset.tweets
            for m in t.mentions
        ][:120]
        assert requests
        for surface, user, now in requests:
            a = via_closure.link(surface, user, now)
            b = via_compact.link(surface, user, now)
            assert [c.entity_id for c in a.ranked] == [c.entity_id for c in b.ranked]
            assert a.degradation == b.degradation
