"""Scale-aware index dispatch: same decisions, observable choice.

``LinkerConfig.select_index_backend`` moves where Eq. 4 is answered
(closure below the node threshold, compact 2-hop cover above), never
*what* the linker decides — these tests pin link-decision parity across
backends at and around the threshold, assert the ``index.selected``
trace breadcrumb, and cover the serving tenants' use of the same dispatch.
They also pin the shelf itself: ``repro.graph`` ships three providers, and
every one of them answers Eq. 4 like the ground truth and the oracles of
:mod:`repro.testing.oracles`.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import repro.graph
from repro.config import DAY, DEFAULT_CONFIG, LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import SocialTemporalLinker
from repro.errors import UnknownUserError
from repro.graph.compact_labels import CompactTwoHopCover
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.graph.online import OnlineReachability
from repro.graph.reachability import reachability_weight, weighted_reachability
from repro.graph.transitive_closure import TransitiveClosure
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.obs.metrics import METRICS
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


SHIPPED_PROVIDERS = {
    "closure": lambda graph, hops: build_reachability_index(
        graph, LinkerConfig(index_backend="closure", max_hops=hops)
    ),
    "compact": lambda graph, hops: build_reachability_index(
        graph, LinkerConfig(index_backend="compact", max_hops=hops)
    ),
    "online": lambda graph, hops: OnlineReachability(graph, max_hops=hops),
}


class TestShippedShelf:
    """Three providers, one protocol, one answer to Eq. 4."""

    def test_graph_exports_are_pinned(self):
        assert sorted(repro.graph.__all__) == [
            "CompactTwoHopCover",
            "DiGraph",
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
                truth = weighted_reachability(graph, s, t, hops)
                assert index.reachability(s, t) == truth, (s, t)
                assert naive.reachability(s, t) == truth, (s, t)
                assert cover.reachability(s, t, exact_followees=True) == truth, (s, t)
                assert (row.get(t, 0.0) if s != t else 0.0) == truth, (s, t)


class TestEq4Tie:
    """``R(0, 20) = 3/(3*5)`` and ``R(0, 21) = 2/(2*5)`` are the same
    rational, so Eq. 1 ties and ascending entity id decides — on all three
    providers, because Eq. 4 is rounded in one place."""

    @pytest.mark.parametrize("provider", sorted(SHIPPED_PROVIDERS))
    def test_tie_breaks_by_entity_id_on_every_provider(self, provider):
        kb = Knowledgebase()
        kb.add_entity("jordan (a)", description=["a"])
        kb.add_entity("jordan (b)", description=["b"])
        for entity in (0, 1):
            kb.add_surface_form("jordan", entity)
        ckb = ComplementedKnowledgebase(kb)
        for ts in range(3):
            ckb.link_tweet(0, user=20, timestamp=ts * DAY)
            ckb.link_tweet(1, user=21, timestamp=ts * DAY)
        # asker 0 follows 1..5; user 20 is 3 hops away through followees
        # 1, 2, 3; user 21 is 2 hops away through 4, 5
        graph = DiGraph.from_edges(
            22,
            [(0, f) for f in (1, 2, 3, 4, 5)]
            + [(1, 6), (6, 20), (2, 7), (7, 20), (3, 8), (8, 20), (4, 21), (5, 21)],
        )
        config = LinkerConfig(influential_users=1)

        def link(name):
            index = SHIPPED_PROVIDERS[name](graph, config.max_hops)
            assert index.reachability(0, 20) == index.reachability(0, 21) == 0.2
            linker = SocialTemporalLinker(ckb, graph, config=config, reachability=index)
            return linker.link("jordan", user=0, now=10 * DAY)

        result = link(provider)
        assert result.ranked[0].entity_id == 0
        assert result.ranked == link("closure").ranked

    @given(st.data())
    def test_equal_rationals_round_equal(self, data):
        """``c1/(d1*g1) == c2/(d2*g2)`` in the rationals, any two triples
        with ``d >= 2`` and ``1 <= c <= g``: the floats are equal too."""
        d1, d2 = data.draw(st.integers(2, 255)), data.draw(st.integers(2, 255))
        g1 = data.draw(st.integers(1, 400))
        c1 = data.draw(st.integers(1, g1))
        share = Fraction(c1 * d2, d1 * g1)  # what c2/g2 has to be
        assume(share <= 1)
        scale = data.draw(st.integers(1, 6))
        c2, g2 = share.numerator * scale, share.denominator * scale
        assert c1 * d2 * g2 == c2 * d1 * g1
        assert reachability_weight(d1, c1, g1) == reachability_weight(d2, c2, g2)

    @given(st.integers(0, 400), st.integers(1, 400))
    def test_direct_edge_weighs_one(self, on_path, followees):
        assert reachability_weight(1, on_path, followees) == 1.0


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


@pytest.mark.parametrize("user", [-1, 13])
@pytest.mark.parametrize("provider", sorted(SHIPPED_PROVIDERS))
class TestUnknownUser:
    """A user id outside the 13-node graph is refused on every provider:
    ``-1`` would wrap to user 12's row, ``13`` would index past the end."""

    @staticmethod
    def linker(tiny_ckb, provider):
        graph = DiGraph.from_edges(13, [(0, 10), (5, 11), (1, 10), (1, 12)])
        config = LinkerConfig(burst_threshold=2, influential_users=2)
        index = SHIPPED_PROVIDERS[provider](graph, config.max_hops)
        return SocialTemporalLinker(tiny_ckb, graph, config=config, reachability=index)

    def test_link_raises(self, tiny_ckb, provider, user):
        linker = self.linker(tiny_ckb, provider)
        with pytest.raises(UnknownUserError):
            linker.link("jordan", user=user, now=100 * DAY)
        assert linker.link("jordan", user=12, now=100 * DAY).ranked

    def test_link_batch_raises_before_scoring(self, tiny_ckb, provider, user):
        batch = MicroBatchLinker(self.linker(tiny_ckb, provider))
        requests = [
            LinkRequest("jordan", 0, 100 * DAY),
            LinkRequest("jordan", user, 100 * DAY),
        ]
        before = METRICS.counter("link.requests")
        with pytest.raises(UnknownUserError):
            batch.link_batch(requests)
        assert METRICS.counter("link.requests") == before


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
        """Link results per request, whole ``ScoredCandidate`` tuples."""
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
            assert a.ranked == b.ranked
            assert a.degradation == b.degradation

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
            assert a.ranked == b.ranked
            assert a.degradation == b.degradation
