"""Scale-aware index dispatch: same decisions, observable choice.

``LinkerConfig.select_index_backend`` moves where Eq. 4 is answered
(closure below the node threshold, compact 2-hop cover above), never
*what* the linker decides.  That the providers link identically is the
differential harness's claim (``tests/test_differential.py``); these
tests pin the selection around the threshold, the ``index.selected``
trace breadcrumb and the serving tenants' use of the same dispatch.
They also pin the shelf itself: ``repro.graph`` ships two providers, and
each of them, like the cached online BFS oracle, answers Eq. 4 like the
ground truth and the other oracles of :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import repro.core
import repro.graph
import repro.kb
import repro.config
from repro.config import CLOSURE_MAX_NODES, DEFAULT_CONFIG, LinkerConfig
from repro.eval.context import activity_split
from repro.graph.compact_labels import (
    CompactTwoHopCover,
    build_compact_two_hop_cover,
)
from repro.graph.dispatch import build_reachability_index
from repro.graph.reachability import reachability_weight, weighted_reachability
from repro.graph.transitive_closure import (
    TransitiveClosure,
    build_transitive_closure_incremental,
)
from repro.obs.trace import TRACE
from repro.testing.oracles import (
    OnlineReachability,
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


PROVIDERS = {
    "closure": build_transitive_closure_incremental,
    "compact": build_compact_two_hop_cover,
    "online": OnlineReachability,
}


class TestShippedShelf:
    """Two shipped providers and the online oracle, one protocol, one
    answer to Eq. 4."""

    def test_graph_exports_are_pinned(self):
        assert sorted(repro.graph.__all__) == [
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

    def test_top_level_exports_are_pinned(self):
        assert sorted(repro.__all__) == [
            "AnnotatedText",
            "BreakerState",
            "CandidateGenerator",
            "CheckpointCorruptError",
            "CircuitBreaker",
            "CircuitOpenError",
            "CollectiveLinker",
            "CompactTwoHopCover",
            "ComplementedKnowledgebase",
            "DAY",
            "DEFAULT_CONFIG",
            "DEFAULT_MAX_HOPS",
            "DeadlineExceededError",
            "DiGraph",
            "DuplicateTweetError",
            "IndexUnavailableError",
            "KBProfile",
            "Knowledgebase",
            "LinkRequest",
            "LinkResult",
            "LinkerConfig",
            "MalformedTweetError",
            "MicroBatchLinker",
            "OnTheFlyLinker",
            "PersonalizedSearchEngine",
            "RecencyPropagationNetwork",
            "ReproError",
            "ResilientIngestor",
            "ScoredCandidate",
            "SocialTemporalLinker",
            "StaleTimestampError",
            "StreamProfile",
            "SyntheticWikipediaBuilder",
            "SyntheticWorld",
            "TextLinkingPipeline",
            "TransitiveClosure",
            "Tweet",
            "TweetStore",
            "TweetValidator",
            "UnknownUserError",
            "WorldFileError",
            "build_experiment",
            "build_reachability_index",
            "build_transitive_closure_incremental",
            "configure_logging",
            "get_logger",
            "load_world",
            "mention_and_tweet_accuracy",
            "save_world",
            "weighted_reachability",
        ]

    def test_core_exports_are_pinned(self):
        assert sorted(repro.core.__all__) == [
            "AnnotatedText",
            "CandidateGenerator",
            "LinkRequest",
            "LinkResult",
            "MicroBatchLinker",
            "ReachabilityProvider",
            "RecencyPropagationNetwork",
            "ScoredCandidate",
            "SocialTemporalLinker",
            "TextLinkingPipeline",
            "combine_scores",
            "entropy_influence",
            "popularity_scores",
            "sliding_window_recency",
            "tfidf_influence",
            "top_influential_users",
            "user_interest",
        ]

    def test_kb_exports_are_pinned(self):
        assert sorted(repro.kb.__all__) == [
            "ComplementedKnowledgebase",
            "Entity",
            "EntityCategory",
            "KBProfile",
            "Knowledgebase",
            "SegmentIndex",
            "StreamCheckpoint",
            "SyntheticKB",
            "SyntheticWikipediaBuilder",
            "load_checkpoint",
            "restore",
            "save_checkpoint",
            "snapshot",
            "wlm_relatedness",
        ]

    @pytest.mark.parametrize("provider", sorted(PROVIDERS))
    @pytest.mark.parametrize(
        "nodes, edges, seed, hops", [(14, 40, 2, 4), (22, 110, 5, 3), (30, 70, 9, 2)]
    )
    def test_provider_matches_ground_truth_and_oracles(
        self, provider, nodes, edges, seed, hops
    ):
        graph = random_graph(nodes, edges, seed)
        index = PROVIDERS[provider](graph, hops)
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
    """Eq. 4 is rounded in one place, so equal rationals are equal floats
    on every provider (the harness's tie script links on them)."""

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


@pytest.fixture
def threshold_10(monkeypatch):
    """``CLOSURE_MAX_NODES`` lowered to 10, where a 30-node graph is
    above it."""
    monkeypatch.setattr(repro.config, "CLOSURE_MAX_NODES", 10)


class TestConfigValidation:
    def test_defaults(self):
        assert DEFAULT_CONFIG.index_backend == "auto"
        assert CLOSURE_MAX_NODES == 2000

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            LinkerConfig(index_backend="quantum")


class TestSelection:
    def test_auto_at_and_around_threshold(self):
        config = LinkerConfig()
        assert config.select_index_backend(CLOSURE_MAX_NODES - 1) == "closure"
        assert config.select_index_backend(CLOSURE_MAX_NODES) == "closure"
        assert config.select_index_backend(CLOSURE_MAX_NODES + 1) == "compact"

    @pytest.mark.parametrize("backend", ["closure", "compact"])
    def test_forced_backend_short_circuits(self, backend):
        config = LinkerConfig(index_backend=backend)
        assert config.select_index_backend(2) == backend
        assert config.select_index_backend(10_000) == backend


class TestDispatchBuild:
    def test_builds_closure_below_threshold(self):
        graph = random_graph(30, 120, seed=1)
        index = build_reachability_index(graph, LinkerConfig())
        assert isinstance(index, TransitiveClosure)

    def test_builds_compact_above_threshold(self, threshold_10):
        graph = random_graph(30, 120, seed=1)
        index = build_reachability_index(graph, LinkerConfig())
        assert isinstance(index, CompactTwoHopCover)

    def test_forced_two_hop(self):
        """The dict cover is a test oracle, not a selectable backend: the
        config rejects the value before any dispatch happens."""
        with pytest.raises(ValueError):
            LinkerConfig(index_backend="two-hop")

    def test_selection_is_traced(self):
        graph = random_graph(30, 120, seed=1)
        with TRACE.span("test.dispatch"):
            build_reachability_index(graph, LinkerConfig())
        events = _selection_events()
        assert len(events) == 1
        attrs = events[0].attributes
        assert attrs["backend"] == "closure"
        assert attrs["requested"] == "auto"
        assert attrs["nodes"] == 30
        assert attrs["edges"] == graph.num_edges
        assert attrs["closure_max_nodes"] == CLOSURE_MAX_NODES


class TestDecisionParity:
    def test_context_auto_provider_matches_default(self, small_context):
        """``social_temporal()`` (and so ``repro evaluate``) scores against
        the context's one cached, auto-dispatched index — the closure at
        this world's size."""
        linker = small_context.social_temporal()
        assert linker.reachability_provider is small_context.reachability_index
        assert isinstance(linker.reachability_provider, TransitiveClosure)


class TestServeDispatch:
    """``repro serve`` tenants get their index from the same dispatch."""

    def test_tenant_above_threshold_serves_from_the_compact_cover(
        self, small_world, monkeypatch
    ):
        from repro.serve.tenants import TenantSpec, build_tenant_registry

        specs = [TenantSpec(name="alpha", deadline_ms=None)]
        below_registry, _ = build_tenant_registry(small_world, specs)
        monkeypatch.setattr(
            repro.config, "CLOSURE_MAX_NODES", small_world.graph.num_nodes - 1
        )
        above_registry, _ = build_tenant_registry(small_world, specs)
        via_closure = below_registry.get("alpha").linker
        via_compact = above_registry.get("alpha").linker
        assert isinstance(via_closure.reachability_provider, TransitiveClosure)
        assert isinstance(via_compact.reachability_provider, CompactTwoHopCover)
        requests = [
            (m.surface, t.user, t.timestamp)
            for t in activity_split(small_world).test.tweets
            for m in t.mentions
        ][:120]
        assert requests
        for surface, user, now in requests:
            a = via_closure.link(surface, user, now)
            b = via_compact.link(surface, user, now)
            assert a.ranked == b.ranked
            assert a.degradation == b.degradation
