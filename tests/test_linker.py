"""SocialTemporalLinker end-to-end behaviour on the Fig.-1 miniature."""

from collections import OrderedDict

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.linker import LinkResult, ScoredCandidate, SocialTemporalLinker
from repro.graph.digraph import DiGraph
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.obs.metrics import METRICS
from repro.stream.tweet import MentionSpan, Tweet

from conftest import (
    JORDAN_CANDIDATES,
    JORDAN_LINKS,
    fresh_linker,
    jordan_world,
    rebuilt_linker,
)


@pytest.fixture
def social_graph():
    """User 0 follows @NBAOfficial (10); user 5 follows the ML expert (11);
    user 6 follows nobody (isolated information seeker), and neither do
    users 13–40, the new authors the feedback tests confirm links for."""
    graph = DiGraph(41)
    graph.add_edge(0, 10)
    graph.add_edge(5, 11)
    graph.add_edge(1, 10)
    graph.add_edge(1, 12)
    return graph


@pytest.fixture
def linker(tiny_ckb, social_graph):
    config = LinkerConfig(burst_threshold=2, influential_users=2)
    return SocialTemporalLinker(tiny_ckb, social_graph, config=config)


class TestLinking:
    def test_social_context_disambiguates(self, linker):
        # user 0 follows @NBAOfficial -> basketball Jordan
        result = linker.link("jordan", user=0, now=100 * DAY)
        assert result.best.entity_id == 0

    def test_different_user_different_entity(self, linker):
        # user 5 follows the ML expert -> ML Jordan
        result = linker.link("jordan", user=5, now=100 * DAY)
        assert result.best.entity_id == 1

    def test_isolated_user_falls_back_to_popularity(self, linker):
        # user 6 has no social signal and nothing is recent at day 100:
        # popularity picks e0 (10 of 17 tweets)
        result = linker.link("jordan", user=6, now=100 * DAY)
        assert result.best.entity_id == 0
        assert result.best.interest == 0.0

    def test_unknown_surface_empty_result(self, linker):
        result = linker.link("qqqqqqq", user=0, now=0.0)
        assert result.ranked == ()
        assert result.best is None

    def test_fuzzy_surface_still_linked(self, linker):
        result = linker.link("jordon", user=0, now=100 * DAY)
        assert result.best.entity_id == 0

    def test_ranked_scores_descending(self, linker):
        result = linker.link("jordan", user=0, now=100 * DAY)
        scores = [c.score for c in result.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_recency_steers_during_burst(self, tiny_ckb, social_graph):
        # sneaker drop: e2 bursts now; isolated user 6 should follow recency
        config = LinkerConfig(
            alpha=0.0, beta=1.0, gamma=0.0, burst_threshold=2,
            recency_propagation=False,
        )
        linker = SocialTemporalLinker(tiny_ckb, social_graph, config=config)
        now = 200 * DAY
        for i in range(5):
            linker.confirm_link(2, user=20 + i, timestamp=now - 0.1 * DAY)
        result = linker.link("jordan", user=6, now=now)
        assert result.best.entity_id == 2


class TestLinkTweet:
    def test_links_each_mention_independently(self, linker):
        tweet = Tweet(
            tweet_id=1,
            user=0,
            timestamp=100 * DAY,
            text="jordan and the chicago bulls",
            mentions=(MentionSpan("jordan"), MentionSpan("chicago bulls")),
        )
        results = linker.link_tweet(tweet)
        assert len(results) == 2
        assert results[0].result.best.entity_id == 0
        assert results[1].result.best.entity_id == 3

    def test_empty_mentions(self, linker):
        tweet = Tweet(tweet_id=1, user=0, timestamp=0.0, text="hello")
        assert linker.link_tweet(tweet) == []


class TestTopK:
    def test_top_k_limit(self, linker):
        result = linker.link("jordan", user=0, now=100 * DAY)
        assert len(result.top_k(2)) == 2

    def test_threshold_filters(self, linker):
        result = linker.link("jordan", user=6, now=100 * DAY)
        # isolated user: every candidate scores <= beta + gamma
        bound = linker.config.no_interest_bound
        assert result.top_k(3, threshold=bound + 1.0) == []


class TestAbstentionEdgeCases:
    """Appendix-D false-positive guard, at its boundary conditions."""

    def test_empty_candidate_set(self, linker):
        result = linker.link("no such surface", user=0, now=100 * DAY)
        assert result.ranked == ()
        assert result.best is None
        assert result.top_k(5) == []
        assert result.top_k(5, threshold=0.0) == []

    def test_scores_exactly_at_bound_are_filtered(self, linker):
        # the Appendix-D guard is a *strict* inequality: a score equal to
        # beta + gamma is indistinguishable from "no measured interest"
        # and must be dropped
        bound = linker.config.no_interest_bound
        result = LinkResult(
            surface="jordan",
            user=6,
            timestamp=100 * DAY,
            ranked=(
                ScoredCandidate(
                    entity_id=0, score=bound, interest=0.0,
                    recency=0.5, popularity=0.5,
                ),
                ScoredCandidate(
                    entity_id=1, score=bound, interest=0.0,
                    recency=0.4, popularity=0.6,
                ),
            ),
        )
        assert result.top_k(2, threshold=bound) == []
        # strictly above the bound survives
        above = LinkResult(
            surface="jordan",
            user=6,
            timestamp=100 * DAY,
            ranked=(
                ScoredCandidate(
                    entity_id=0, score=bound + 1e-9, interest=1e-9,
                    recency=0.5, popularity=0.5,
                ),
            ),
        )
        assert [c.entity_id for c in above.top_k(2, threshold=bound)] == [0]

    def test_top_k_zero_returns_empty(self, linker):
        result = linker.link("jordan", user=0, now=100 * DAY)
        assert result.top_k(0) == []
        assert result.top_k(0, threshold=0.0) == []


class TestFeedback:
    def test_confirm_link_updates_counts(self, linker, tiny_ckb):
        before = tiny_ckb.count(1)
        linker.confirm_link(1, user=5, timestamp=50 * DAY)
        assert tiny_ckb.count(1) == before + 1

    def test_confirm_invalidates_influence_cache(self, linker, tiny_ckb):
        linker.link("jordan", user=0, now=100 * DAY)  # warm the cache
        # a new prolific, discriminative user floods e2's community
        for i in range(30):
            linker.confirm_link(2, user=40, timestamp=float(i))
        assert 40 in linker.influential_users((0, 1, 2))[2]

    def test_provider_injection(self, tiny_ckb, social_graph):
        closure = build_transitive_closure_incremental(social_graph)
        linker = SocialTemporalLinker(
            tiny_ckb,
            social_graph,
            config=LinkerConfig(burst_threshold=2),
            reachability=closure,
        )
        assert linker.link("jordan", user=0, now=100 * DAY).best.entity_id == 0


class TestInfluentialCacheBound:
    """The influential-user cache is LRU-bounded (config.influential_cache_size)."""

    def _linker(self, tiny_ckb, social_graph, size):
        config = LinkerConfig(
            burst_threshold=2, influential_users=2, influential_cache_size=size
        )
        return SocialTemporalLinker(tiny_ckb, social_graph, config=config)

    def test_cache_never_exceeds_bound(self, tiny_ckb, social_graph):
        linker = self._linker(tiny_ckb, social_graph, size=1)
        for day in (8, 9, 10):
            linker.link("jordan", user=0, now=day * DAY)  # one key per set
            linker.link("nba", user=0, now=day * DAY)
        assert len(linker._influential_cache) <= 1

    def test_eviction_is_least_recently_used(self, tiny_ckb, social_graph):
        linker = self._linker(tiny_ckb, social_graph, size=2)
        linker.link("jordan", user=0, now=8 * DAY)
        linker.link("nba", user=0, now=8 * DAY)
        assert list(linker._influential_cache) == [(0, 1, 2), (4,)]
        linker.influential_users((0, 1, 2))  # touch the older set
        linker.link("chicago bulls", user=0, now=8 * DAY)  # evicts the LRU
        assert list(linker._influential_cache) == [(0, 1, 2), (3,)]

    def test_bounded_results_match_unbounded(self, tiny_ckb, social_graph):
        bounded = self._linker(tiny_ckb, social_graph, size=1)
        unbounded = self._linker(tiny_ckb, social_graph, size=4096)
        for surface, user in (("jordan", 0), ("jordan", 5), ("nba", 0), ("jordan", 0)):
            a = bounded.link(surface, user, now=8 * DAY)
            b = unbounded.link(surface, user, now=8 * DAY)
            assert a.candidates == b.candidates
            for ca, cb in zip(a.ranked, b.ranked):
                assert ca.score == pytest.approx(cb.score)

    def test_hit_survives_eviction_by_another_thread(self, tiny_ckb, social_graph):
        """Serve's handler threads share the cache without a lock: another
        thread's ``popitem`` can land between a hit's ``get`` and its LRU
        touch.  Injected here deterministically — the hit must still
        return the ranking it read, not raise ``KeyError`` (a 500)."""

        class EvictedAfterRead(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if value is not None:
                    self.popitem(last=False)  # the other thread's eviction
                return value

        linker = self._linker(tiny_ckb, social_graph, size=1)
        ranking = linker.influential_users((4,))
        assert set(linker._influential_cache) == {(4,)}
        linker._influential_cache = EvictedAfterRead(linker._influential_cache)
        hits = METRICS.counter("influential_cache.hit")
        assert linker.influential_users((4,)) is ranking
        assert METRICS.counter("influential_cache.hit") == hits + 1
        assert len(linker._influential_cache) == 0
        # and the whole mention still links, re-filling the cache
        assert linker.link("nba", user=0, now=8 * DAY).best.entity_id == 4

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LinkerConfig(influential_cache_size=0)


def _confirms(times):
    def mutate(warm, ckb):
        for _ in range(times):
            warm.confirm_link(0, user=1, timestamp=10 * DAY)

    return mutate


#: name -> (history, the write made after the warm linker's first link()).
WRITES = {
    "confirm_once": (JORDAN_LINKS, _confirms(1)),
    "confirm_twice": (JORDAN_LINKS, _confirms(2)),
    "direct_ckb_write": (
        JORDAN_LINKS,
        lambda warm, ckb: ckb.bulk_link([(0, 1, 10 * DAY, -1)] * 5),
    ),
}


def _confirm_a_neighbour(warm, ckb):
    for _ in range(3):
        warm.confirm_link(5, user=11, timestamp=9.5 * DAY)


#: Writes that move "jordan" through the recency of its clusters in the
#: Fig.-1 KB ({0, 3, 4} and {1, 5, 6}): 5 and 6 are neighbours, not candidates.
CLUSTER_WRITES = {
    "confirm": _confirm_a_neighbour,
    "direct_ckb_write": lambda warm, ckb: ckb.bulk_link(
        [(6, 11, 9 * DAY, -1)] * 3 + [(0, 11, 8 * DAY, -1)]
    ),
}


class TestWarmEqualsFresh:
    """``U*_e`` is stamped with ``ckb.version`` of the whole candidate set,
    so a linker that has linked before scores like one built just now —
    whoever wrote to ``D_e``, and with no ``invalidate_*`` call to forget.
    Every case links versus abstains differently at PR 22."""

    @pytest.mark.parametrize("method", ["entropy", "tfidf"])
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_after_a_write_to_a_sibling(self, write, method):
        links, mutate = WRITES[write]
        ckb, graph = jordan_world(links)
        config = LinkerConfig(influential_users=1, influence_method=method)
        warm = SocialTemporalLinker(ckb, graph, config=config)
        warm.link("jordan", user=0, now=10 * DAY)
        mutate(warm, ckb)
        assert (
            warm.link("jordan", 0, 10 * DAY).ranked
            == fresh_linker(warm).link("jordan", 0, 10 * DAY).ranked
            == rebuilt_linker(warm).link("jordan", 0, 10 * DAY).ranked
        )

    @pytest.mark.parametrize("write", sorted(CLUSTER_WRITES))
    def test_after_a_write_into_a_read_cluster(self, tiny_ckb, social_graph, write):
        """The merged timelines are kept by the writers, not by a caller:
        after the warm linker has read both "jordan" clusters, a write to
        a candidate or to a cluster neighbour must show in its next answer
        exactly as in a linker over a KB rebuilt from the links, whose
        timelines do not exist yet."""
        warm = SocialTemporalLinker(
            tiny_ckb,
            social_graph,
            LinkerConfig(burst_threshold=2, relatedness_threshold=0.2),
        )
        before = warm.link("jordan", user=0, now=10 * DAY).ranked
        CLUSTER_WRITES[write](warm, tiny_ckb)
        after = warm.link("jordan", 0, 10 * DAY).ranked
        assert after != before
        assert after == rebuilt_linker(warm).link("jordan", 0, 10 * DAY).ranked

    @pytest.mark.parametrize("nth_read", range(2 * len(JORDAN_CANDIDATES) + 1))
    def test_write_landing_inside_a_rebuild(self, nth_read):
        """The handler threads share the cache without a lock.  A write
        that lands between the stamp and the store (here: at the n-th of
        the reads a rebuild makes, one ``user_counts`` and one ``count``
        per candidate — before, between or after any of them; the last
        case lands right behind the store) may only leave an entry stamped
        too old."""

        class WritesAtNthRead:
            def __init__(self, inner):
                self._inner = inner
                self._reads = 0

            def _read(self):
                if self._reads == nth_read:
                    self._inner.bulk_link([(0, 1, 10 * DAY, -1)] * 5)
                self._reads += 1

            def user_counts(self, entity_id):
                self._read()
                return self._inner.user_counts(entity_id)

            def count(self, entity_id):
                self._read()
                return self._inner.count(entity_id)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        ckb, graph = jordan_world(JORDAN_LINKS)
        config = LinkerConfig(influential_users=1)
        warm = SocialTemporalLinker(WritesAtNthRead(ckb), graph, config=config)
        warm.link("jordan", user=0, now=10 * DAY)
        assert ckb.count(0) == 6  # the write did land mid-rebuild
        assert (
            warm.link("jordan", 0, 10 * DAY).ranked
            == fresh_linker(warm).link("jordan", 0, 10 * DAY).ranked
        )
