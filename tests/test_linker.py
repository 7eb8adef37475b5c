"""SocialTemporalLinker end-to-end behaviour on the Fig.-1 miniature."""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import (
    LinkResult,
    ScoredCandidate,
    SocialTemporalLinker,
    record_link_outcome,
)
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    IndexUnavailableError,
)
from repro.graph.digraph import DiGraph
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.obs.metrics import METRICS
from repro.stream.tweet import MentionSpan, Tweet
from repro.testing.oracles import OnlineReachability, influential_users_by_definition

from conftest import (
    JORDAN_CANDIDATES,
    JORDAN_LINKS,
    fresh_linker,
    jordan_world,
)


@pytest.fixture
def social_graph():
    """User 0 follows @NBAOfficial (10); user 5 follows the ML expert (11);
    user 6 follows nobody (isolated information seeker), and neither do
    users 13–40, the new authors the feedback tests confirm links for."""
    return DiGraph(41, [(0, 10), (5, 11), (1, 10), (1, 12)])


def by_definition(ckb, candidates, k):
    """:math:`U^*_e` of every member of ``candidates`` by the definition."""
    return {
        e: influential_users_by_definition(ckb, e, candidates, k) for e in candidates
    }


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


class TestNonFiniteNow:
    """NaN would bisect the recency timelines anywhere and ±inf empty every
    window: both entry points refuse the time before any stage runs."""

    NON_FINITE = [float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("now", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_link_refuses(self, linker, now):
        counters = METRICS.snapshot()["counters"]
        with pytest.raises(ValueError, match="link time must be finite"):
            linker.link("jordan", user=0, now=now)
        assert METRICS.snapshot()["counters"] == counters

    @pytest.mark.parametrize("now", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_link_batch_refuses_the_whole_batch(self, linker, now):
        batch = MicroBatchLinker(linker)
        requests = [
            LinkRequest("jordan", user=0, now=100 * DAY),
            LinkRequest("jordan", user=5, now=now),
        ]
        counters = METRICS.snapshot()["counters"]
        with pytest.raises(ValueError, match="link time must be finite"):
            batch.link_batch(requests)
        assert METRICS.snapshot()["counters"] == counters


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
        assert [r.surface for r in results] == ["jordan", "chicago bulls"]
        assert results[0].best.entity_id == 0
        assert results[1].best.entity_id == 3

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

    @pytest.mark.parametrize(
        "degradation, kept",
        [
            (None, [0]),
            ("index_unavailable", [0, 1, 2]),
            ("deadline_exceeded", [0, 1, 2]),
            ("circuit_open", [0, 1, 2]),
        ],
        ids=["full-fidelity", "index_unavailable", "deadline_exceeded", "circuit_open"],
    )
    def test_threshold_applies_only_at_full_fidelity(self, degradation, kept):
        ranked = tuple(
            ScoredCandidate(
                entity_id=e, score=score, interest=0.0, recency=0.0, popularity=0.0
            )
            for e, score in enumerate((0.5, 0.35, 0.2))
        )
        result = LinkResult("jordan", 0, 0.0, ranked, degradation=degradation)
        assert [c.entity_id for c in result.top_k(3, threshold=0.4)] == kept
        assert result.top_k(3) == list(ranked)


class TestAbstentionEdgeCases:
    """Appendix-D false-positive guard, at its boundary conditions."""

    @pytest.mark.parametrize(
        "surface, user, linked",
        [
            ("jordan", 0, [0]),  # following @NBAOfficial lifts e0 over β+γ
            ("jordan", 6, []),  # isolated, nothing bursts: all ≤ β+γ
            ("no such surface", 0, []),  # E_m is empty
        ],
        ids=["confident", "below-bound", "unknown-surface"],
    )
    def test_full_fidelity_outcome(self, linker, surface, user, linked):
        before = METRICS.counter("link.abstained")
        result = linker.link(surface, user=user, now=100 * DAY)
        bound = linker.config.no_interest_bound
        assert result.degradation is None
        assert [c.entity_id for c in result.top_k(5, threshold=bound)] == linked
        assert METRICS.counter("link.abstained") == before + (not linked)
        assert (result.best is None) == (surface == "no such surface")

    @pytest.mark.parametrize(
        "error, degradation",
        [
            (IndexUnavailableError, "index_unavailable"),
            (DeadlineExceededError, "deadline_exceeded"),
            (CircuitOpenError, "circuit_open"),
        ],
        ids=["index_unavailable", "deadline_exceeded", "circuit_open"],
    )
    def test_degraded_result_keeps_its_ranking(self, tiny_ckb, error, degradation):
        """A degraded result never measured interest, so the no-interest
        bound does not apply: its recency + popularity ranking is kept,
        and the link does not count as an abstention, whatever the fault."""

        class Outage:
            def reachability(self, source, target):
                raise error("index down")

        linker = SocialTemporalLinker(
            tiny_ckb,
            DiGraph(13),
            config=LinkerConfig(burst_threshold=2, influential_users=2),
            reachability=Outage(),
        )
        before = METRICS.counter("link.abstained")
        result = linker.link("jordan", 0, 100 * DAY)
        bound = linker.config.no_interest_bound
        assert result.degradation == degradation
        assert all(c.score <= bound for c in result.ranked)
        for k in range(len(result.ranked) + 1):
            assert result.top_k(k, threshold=bound) == list(result.ranked[:k])
        assert METRICS.counter("link.abstained") == before

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

    @pytest.mark.parametrize(
        "scores, degradation, abstained",
        [
            ((0.7, 0.2), None, False),
            ((0.35, 0.2), None, True),
            ((), None, True),
            ((0.35, 0.2), "index_unavailable", False),
        ],
        ids=["confident", "below-bound", "no-candidates", "degraded"],
    )
    def test_outcome_span_reads_the_rule(self, scores, degradation, abstained):
        """The root span's ``abstained`` attribute and the counter are
        ``not top_k(1, β + γ)``: a degraded result does not abstain."""

        class Root:
            recording = True

            def __init__(self):
                self.attributes = {}

            def set_attribute(self, key, value):
                self.attributes[key] = value

        config = LinkerConfig()
        ranked = tuple(
            ScoredCandidate(
                entity_id=e, score=score, interest=0.0, recency=0.0, popularity=0.0
            )
            for e, score in enumerate(scores)
        )
        result = LinkResult("jordan", 0, 0.0, ranked, degradation=degradation)
        root = Root()
        before = METRICS.counter("link.abstained")
        record_link_outcome(root, result, config)
        assert root.attributes["abstained"] is abstained
        assert root.attributes["degradation"] == degradation
        assert root.attributes.get("entity") == (0 if scores else None)
        assert METRICS.counter("link.abstained") == before + abstained

    @pytest.mark.parametrize(
        "surface, user",
        [("jordan", 0), ("jordan", 6), ("no such surface", 0)],
        ids=["confident", "below-bound", "unknown-surface"],
    )
    def test_batch_path_abstains_like_link(self, linker, surface, user):
        before = METRICS.counter("link.abstained")
        linker.link(surface, user=user, now=100 * DAY)
        single = METRICS.counter("link.abstained") - before
        batch = MicroBatchLinker(linker)
        before = METRICS.counter("link.abstained")
        batch.link_batch([LinkRequest(surface, user=user, now=100 * DAY)])
        assert METRICS.counter("link.abstained") - before == single


class TestScoreEvidence:
    """Each feature of Eq. 1 on the miniature, recomputed from the
    complemented KB and the follow graph by definition."""

    @pytest.mark.parametrize(
        "user, now",
        [(0, 8 * DAY), (1, 8 * DAY), (5, 100 * DAY), (6, 100 * DAY)],
        ids=["nba-follower-burst", "two-followees", "ml-follower", "isolated"],
    )
    def test_features_follow_the_definitions(self, tiny_ckb, social_graph, user, now):
        config = LinkerConfig(
            burst_threshold=2, influential_users=2, recency_propagation=False
        )
        linker = SocialTemporalLinker(tiny_ckb, social_graph, config=config)
        result = linker.link("jordan", user=user, now=now)
        candidates = result.candidates
        oracle = OnlineReachability(social_graph)
        influential = by_definition(tiny_ckb, candidates, config.influential_users)
        raw = {
            e: sum(oracle.reachability(user, v) for v in influential[e])
            / len(influential[e])
            for e in candidates
        }
        counts = {e: tiny_ckb.count(e) for e in candidates}
        recent = {
            e: tiny_ckb.recent_count(e, now, config.window) for e in candidates
        }
        total_raw = sum(raw.values())
        for c in result.ranked:
            interest = raw[c.entity_id] / total_raw if total_raw else 0.0
            recency = (
                recent[c.entity_id] / sum(recent.values())
                if recent[c.entity_id] >= config.burst_threshold
                else 0.0
            )
            assert c.interest == pytest.approx(interest)
            popularity = counts[c.entity_id] / sum(counts.values())
            assert c.popularity == pytest.approx(popularity)
            assert c.recency == pytest.approx(recency)
            assert c.score == pytest.approx(
                config.alpha * c.interest
                + config.beta * c.recency
                + config.gamma * c.popularity
            )

    @pytest.mark.parametrize(
        "confirms, shares", [(1, {0: 0.0, 1: 0.0}), (2, {0: 1.0, 1: 0.0})]
    )
    def test_interest_follows_confirmed_links(self, confirms, shares):
        """Links confirmed on e0 by the asker's one followee (user 1) first
        push user 1 out of ``U*_e1`` (Eq. 6 weighs users over the whole
        set), then into ``U*_e0``; each interest share is the normalised
        mean reachability to the ``U*_e`` read after the writes."""
        ckb, graph = jordan_world(JORDAN_LINKS)
        linker = SocialTemporalLinker(
            ckb, graph, config=LinkerConfig(influential_users=1)
        )
        linker.link("jordan", user=0, now=10 * DAY)
        for _ in range(confirms):
            linker.confirm_link(0, user=1, timestamp=10 * DAY)
        result = linker.link("jordan", user=0, now=10 * DAY)
        oracle = OnlineReachability(graph)
        influential = by_definition(ckb, JORDAN_CANDIDATES, 1)
        raw = {
            e: sum(oracle.reachability(0, v) for v in users) / len(users)
            for e, users in influential.items()
        }
        total = sum(raw.values())
        assert len(result.ranked) == 2
        for c in result.ranked:
            expected = raw[c.entity_id] / total if total else 0.0
            assert c.interest == pytest.approx(expected)
            assert c.interest == shares[c.entity_id]


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

    def test_new_meaning_of_a_known_surface_warms_up(self, linker, tiny_ckb):
        """Appendix D's new-meaning step: an entity page, its surface in
        both candidate paths, and the triggering tweet as its first link."""
        entity = tiny_ckb.kb.add_entity(title="jordan (novel startup)")
        linker.candidate_generator.register_surface("jordan", entity.entity_id)
        linker.confirm_link(entity.entity_id, user=6, timestamp=100 * DAY)
        assert entity.entity_id in linker.candidate_generator.candidates("jordan")
        assert entity.entity_id in linker.candidate_generator.candidates("jordon")
        assert tiny_ckb.count(entity.entity_id) == 1
        result = linker.link("jordan", user=6, now=100 * DAY)
        assert entity.entity_id in result.candidates

    def test_new_surface_links_to_its_new_meaning(self, linker, tiny_ckb):
        assert linker.link("brandnewthing", user=0, now=0.0).best is None
        entity = tiny_ckb.kb.add_entity(title="brand new thing")
        linker.candidate_generator.register_surface("brandnewthing", entity.entity_id)
        linker.confirm_link(entity.entity_id, user=0, timestamp=0.0)
        result = linker.link("brandnewthing", user=0, now=1.0)
        assert result.best.entity_id == entity.entity_id

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


class _WritesAtNthRead:
    """A CKB that counts the reads a rescan makes (``users_by_count``,
    ``user_counts`` and ``count``) and, when ``write_at`` is one of them,
    lands a write to ``D_0`` just before it."""

    def __init__(self, inner, write_at=None):
        self._inner = inner
        self._write_at = write_at
        self.reads = []

    def _read(self, name, entity_id):
        if len(self.reads) == self._write_at:
            self._inner.bulk_link([(0, 1, 10 * DAY, -1)] * 5)
        self.reads.append(f"{name}({entity_id})")

    def users_by_count(self, entity_id):
        self._read("users_by_count", entity_id)
        return self._inner.users_by_count(entity_id)

    def user_counts(self, entity_id):
        self._read("user_counts", entity_id)
        return self._inner.user_counts(entity_id)

    def count(self, entity_id):
        self._read("count", entity_id)
        return self._inner.count(entity_id)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _rescan_reads():
    """The reads one rescan of the "jordan" set makes, in order.  In
    ``link()`` none comes before them; later ones are the other features'."""
    ckb, graph = jordan_world(JORDAN_LINKS)
    reads = _WritesAtNthRead(ckb)
    linker = SocialTemporalLinker(reads, graph, config=LinkerConfig(influential_users=1))
    linker.influential_users(JORDAN_CANDIDATES)
    return reads.reads


class TestWarmEqualsFresh:
    """``U*_e`` is stamped with ``ckb.version`` of the whole candidate set,
    so a linker that has linked before scores like one built just now.
    That it does after every kind of write is checked by the differential
    harness (``tests/test_differential.py``); this case injects a write
    into the middle of a rescan."""

    READS = _rescan_reads()

    def test_the_rescan_reads_every_community_then_each_scan(self):
        per_entity = ["user_counts({})", "count({})", "users_by_count({})"]
        assert self.READS == [f"user_counts({c})" for c in JORDAN_CANDIDATES] + [
            read.format(c) for c in JORDAN_CANDIDATES for read in per_entity
        ]

    @pytest.mark.parametrize("nth_read", range(len(READS) + 1))
    def test_write_landing_inside_a_rebuild(self, nth_read):
        """The handler threads share the cache without a lock.  A write
        that lands between the stamp and the store (here: just before the
        n-th of the reads the rescan makes, :attr:`READS`; the last case
        lands right behind the store) may only leave an entry stamped too
        old, which the next read rescans."""
        ckb, graph = jordan_world(JORDAN_LINKS)
        config = LinkerConfig(influential_users=1)
        reads = _WritesAtNthRead(ckb, write_at=nth_read)
        warm = SocialTemporalLinker(reads, graph, config=config)
        warm.link("jordan", user=0, now=10 * DAY)
        assert ckb.count(0) == 6  # the write did land
        assert (
            warm.link("jordan", 0, 10 * DAY).ranked
            == fresh_linker(warm).link("jordan", 0, 10 * DAY).ranked
        )


class TestRefreshPublishes:
    """A stale entry is rescanned into a new one: serve's handler threads
    share the cache without a lock, so a rankings dict already handed out
    must never change under its reader."""

    SETS = ((0, 1, 2), (3,), (4,), (0, 4), (1, 2, 5))

    def test_rankings_held_across_a_confirm_stay_as_read(self, linker, tiny_ckb):
        held = linker.influential_users((0, 1, 2))
        copied = {e: list(users) for e, users in held.items()}
        for i in range(30):  # a prolific new author floods e2's community
            linker.confirm_link(2, user=40, timestamp=float(i))
        refreshes = METRICS.counter("influential_cache.refresh")
        after = linker.influential_users((0, 1, 2))
        assert METRICS.counter("influential_cache.refresh") == refreshes + 1
        assert held == copied and 40 not in held[2]
        assert after == by_definition(tiny_ckb, (0, 1, 2), 2)
        assert 40 in after[2]

    def test_threads_reading_stale_entries_get_the_sequential_answers(
        self, linker, tiny_ckb
    ):
        for candidates in self.SETS:
            linker.influential_users(candidates)
        for i, entity in enumerate((0, 1, 2, 3, 4, 5) * 3):  # every entry stale
            linker.confirm_link(entity, user=13 + i % 5, timestamp=float(i))
        expected = {c: by_definition(tiny_ckb, c, 2) for c in self.SETS}
        start = threading.Barrier(8)
        answers = [None] * 8

        def read(slot):
            start.wait(timeout=60)
            answers[slot] = [
                (c, linker.influential_users(c))
                for _ in range(20)
                for c in self.SETS[slot % len(self.SETS) :] + self.SETS
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for answer in answers:
            assert answer and all(got == expected[c] for c, got in answer)
