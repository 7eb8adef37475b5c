"""Property-based tests over core invariants (hypothesis).

These complement the per-module unit tests with randomized structure:
knowledgebases with arbitrary link patterns, random score inputs, random
predictions — the invariants must hold for all of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkerConfig
from repro.core.influence import (
    _FORMULAS,
    entropy_influence,
    influential_user_sets,
    tfidf_influence,
    top_influential_users,
)
from repro.core.popularity import popularity_scores
from repro.core.recency import sliding_window_recency
from repro.core.scoring import combine_scores
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.stream.tweet import MentionSpan, Tweet
from repro.testing.oracles import influential_users_by_definition

from conftest import ckb_of

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
links_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),   # entity
        st.integers(min_value=0, max_value=6),   # user
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # time
    ),
    max_size=60,
)

#: a candidate set: 1 to 5 distinct entities of the five, in any order
candidates_strategy = st.permutations(range(5)).flatmap(
    lambda order: st.integers(1, 5).map(lambda n: tuple(order[:n]))
)

#: ``{entity: {user: |D_e^u|}}`` with counts from {1, 2, 4}: ties galore
communities_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.dictionaries(
        st.integers(min_value=0, max_value=7), st.sampled_from((1, 2, 4)), max_size=8
    ),
    max_size=5,
)

share_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=8,
)


def build_ckb(links):
    kb = Knowledgebase()
    for index in range(5):
        kb.add_entity(f"entity {index}")
    ckb = ComplementedKnowledgebase(kb)
    for entity, user, timestamp in links:
        ckb.link_tweet(entity, user, timestamp)
    return ckb


class VisitCountingCKB:
    """A CKB whose :meth:`users_by_count` counts the users taken from it."""

    def __init__(self, inner):
        self._inner = inner
        self.visited = 0

    def users_by_count(self, entity_id):
        for user in self._inner.users_by_count(entity_id):
            self.visited += 1
            yield user

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ---------------------------------------------------------------------- #
# popularity (Eq. 2)
# ---------------------------------------------------------------------- #
class TestPopularityProperties:
    @given(links_strategy)
    @settings(max_examples=100)
    def test_shares_normalized_or_zero(self, links):
        ckb = build_ckb(links)
        scores = popularity_scores(ckb, [0, 1, 2, 3, 4])
        total = sum(scores.values())
        assert total == pytest.approx(1.0) or total == 0.0
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    @given(links_strategy)
    @settings(max_examples=100)
    def test_monotone_in_counts(self, links):
        ckb = build_ckb(links)
        scores = popularity_scores(ckb, [0, 1, 2, 3, 4])
        counts = {e: ckb.count(e) for e in range(5)}
        for a in range(5):
            for b in range(5):
                if counts[a] > counts[b]:
                    assert scores[a] >= scores[b]


# ---------------------------------------------------------------------- #
# recency (Eq. 9)
# ---------------------------------------------------------------------- #
class TestRecencyProperties:
    @given(
        links_strategy,
        st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100)
    def test_bounded_and_gated(self, links, now, window, threshold):
        ckb = build_ckb(links)
        scores = sliding_window_recency(ckb, [0, 1, 2, 3, 4], now, window, threshold)
        assert all(0.0 <= v <= 1.0 for v in scores.values())
        for entity, value in scores.items():
            if ckb.recent_count(entity, now, window) < threshold:
                assert value == 0.0

    @given(links_strategy, st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=60)
    def test_wider_window_never_sees_fewer_tweets(self, links, now):
        ckb = build_ckb(links)
        for entity in range(5):
            narrow = ckb.recent_count(entity, now, 5.0)
            wide = ckb.recent_count(entity, now, 50.0)
            assert wide >= narrow


# ---------------------------------------------------------------------- #
# influence (Eq. 6 / 7)
# ---------------------------------------------------------------------- #
class TestInfluenceProperties:
    @given(links_strategy)
    @settings(max_examples=100)
    def test_non_negative_and_members_only(self, links):
        ckb = build_ckb(links)
        candidates = (0, 1, 2)
        for user in range(7):
            for entity in candidates:
                tfidf = tfidf_influence(ckb, user, entity, candidates)
                entropy = entropy_influence(ckb, user, entity, candidates)
                assert tfidf >= 0.0
                assert entropy >= 0.0
                if user not in ckb.community(entity):
                    assert tfidf == 0.0
                    assert entropy == 0.0

    @given(links_strategy)
    @settings(max_examples=100)
    def test_entropy_bounded_by_pure_share(self, links):
        # entropy influence is at most share / smoothing (entropy >= 0)
        ckb = build_ckb(links)
        candidates = (0, 1, 2, 3, 4)
        for user in range(7):
            for entity in candidates:
                count = ckb.count(entity)
                if count == 0:
                    continue
                share = ckb.user_count(entity, user) / count
                assert entropy_influence(ckb, user, entity, candidates) <= (
                    share / 2.0 + 1e-12
                )

    @given(links_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=100)
    def test_topk_sorted_and_within_community(self, links, k):
        ckb = build_ckb(links)
        candidates = (0, 1, 2)
        top = top_influential_users(ckb, 0, candidates, k=k)
        assert len(top) <= k
        assert set(top) <= ckb.community(0)
        scores = [entropy_influence(ckb, u, 0, candidates) for u in top]
        assert scores == sorted(scores, reverse=True)

    @given(
        links_strategy,
        candidates_strategy,
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=150)
    def test_ranking_is_the_per_user_definition_sorted(self, links, candidates, k):
        """The scan scores only the users ahead of its stop; it must still
        be the public per-user function sorted by (-influence, user), to
        the bit, for users in one community or several — one entity at a
        time, the whole set in one call, and for an entity scored outside
        its own candidate set."""
        ckb = build_ckb(links)
        for method in ("tfidf", "entropy"):
            expected = {
                entity: influential_users_by_definition(
                    ckb, entity, candidates, k, method
                )
                for entity in range(5)
            }
            for entity in range(5):
                assert (
                    top_influential_users(ckb, entity, candidates, k, method)
                    == expected[entity]
                )
            assert influential_user_sets(ckb, range(5), candidates, k, method) == expected

    @given(communities_strategy, candidates_strategy, st.integers(1, 5))
    @settings(max_examples=200)
    def test_scan_equals_the_definition_on_tied_counts(self, communities, candidates, k):
        """Counts from {1, 2, 4} over up to five communities tie often, and
        under Eq. 6 a user with ``2n`` tweets in two of four candidate
        communities scores exactly what a lone user with ``n`` does: the
        ``(value, id)`` stop key has to let the lower id through."""
        ckb = ckb_of(communities, num_entities=5)
        for method in ("tfidf", "entropy"):
            assert influential_user_sets(ckb, range(5), candidates, k, method) == {
                entity: influential_users_by_definition(
                    ckb, entity, candidates, k, method
                )
                for entity in range(5)
            }

    @given(communities_strategy, candidates_strategy)
    @settings(max_examples=200)
    def test_no_user_beats_the_lone_user_at_her_count(self, communities, candidates):
        """The scan's bound: whatever her other counts, a user's influence
        is at most that of a user of one community only with the same
        count, inside the candidate set or outside it."""
        ckb = ckb_of(communities, num_entities=5)
        for method, influence in (
            ("tfidf", tfidf_influence),
            ("entropy", entropy_influence),
        ):
            term, op = _FORMULAS[method]
            lone = term((1,), len(candidates))
            for entity in range(5):
                for user, count in ckb.user_counts(entity).items():
                    bound = op(count / ckb.count(entity), lone)
                    assert influence(ckb, user, entity, candidates) <= bound

    @given(communities_strategy, candidates_strategy, st.integers(1, 5))
    @settings(max_examples=200)
    def test_scan_stops_at_the_first_user_the_bound_rules_out(
        self, communities, candidates, k
    ):
        """It visits every user ahead of the first whose bound key sorts
        after the final k-th key (or whose bound is not positive), that
        user, and no one further."""
        ckb = ckb_of(communities, num_entities=5)
        for method, influence in (
            ("tfidf", tfidf_influence),
            ("entropy", entropy_influence),
        ):
            term, op = _FORMULAS[method]
            lone = term((1,), len(candidates))
            for entity in range(5):
                ranking = influential_users_by_definition(
                    ckb, entity, candidates, k, method
                )
                order = ckb.users_by_count(entity)
                total = ckb.count(entity)
                kth = (0.0, -1)
                if len(ranking) == k:
                    last = ranking[-1]
                    kth = (-influence(ckb, last, entity, candidates), last)
                ruled_out = [
                    i
                    for i, user in enumerate(order)
                    if (-op(ckb.user_count(entity, user) / total, lone), user) > kth
                ]
                expected = ruled_out[0] + 1 if ruled_out else len(order)
                visits = VisitCountingCKB(ckb)
                influential_user_sets(visits, (entity,), candidates, k, method)
                assert visits.visited == expected


# ---------------------------------------------------------------------- #
# score combination (Eq. 1)
# ---------------------------------------------------------------------- #
class TestCombineProperties:
    @given(share_strategy, share_strategy, share_strategy)
    @settings(max_examples=150)
    def test_scores_bounded_and_sorted(self, interest, recency, popularity):
        candidates = sorted(set(interest) | set(recency) | set(popularity))
        ranked = combine_scores(
            candidates, interest, recency, popularity, LinkerConfig()
        )
        scores = [c.score for c in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 + 1e-9 for s in scores)

    @given(share_strategy, share_strategy, share_strategy)
    @settings(max_examples=100)
    def test_candidate_order_irrelevant(self, interest, recency, popularity):
        candidates = sorted(set(interest) | set(recency) | set(popularity))
        forward = combine_scores(
            candidates, interest, recency, popularity, LinkerConfig()
        )
        backward = combine_scores(
            list(reversed(candidates)), interest, recency, popularity, LinkerConfig()
        )
        assert forward == backward

    @given(share_strategy)
    @settings(max_examples=100)
    def test_single_feature_weights_recover_inputs(self, interest):
        candidates = sorted(interest)
        ranked = combine_scores(
            candidates, interest, {}, {}, LinkerConfig(alpha=1, beta=0, gamma=0)
        )
        for candidate in ranked:
            assert candidate.score == pytest.approx(interest[candidate.entity_id])


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
predictions_strategy = st.lists(
    st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=3),
    min_size=1,
    max_size=15,
)


class TestMetricsProperties:
    @given(predictions_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_accuracies_bounded_and_consistent(self, guesses, rng):
        """Both metrics stay in [0, 1]; on uniform single-mention tweets
        they coincide.  (Tweet ≤ mention accuracy is *not* a theorem for
        mixed tweet lengths — a correct 1-mention tweet plus an all-wrong
        2-mention tweet gives 1/2 vs 1/3 — it only holds empirically.)"""
        tweets = []
        predictions = {}
        for tweet_id, guess_row in enumerate(guesses):
            truths = [rng.randrange(5) for _ in guess_row]
            tweets.append(
                Tweet(
                    tweet_id=tweet_id,
                    user=0,
                    timestamp=float(tweet_id),
                    text="m",
                    mentions=tuple(MentionSpan("m", true_entity=t) for t in truths),
                )
            )
            predictions[tweet_id] = list(guess_row)
        report = mention_and_tweet_accuracy(tweets, predictions)
        assert 0.0 <= report.tweet_accuracy <= 1.0
        assert 0.0 <= report.mention_accuracy <= 1.0
        singles = [t for t in tweets if len(t.mentions) == 1]
        if len(singles) == len(tweets):
            assert report.tweet_accuracy == pytest.approx(report.mention_accuracy)

    @given(predictions_strategy)
    @settings(max_examples=50)
    def test_perfect_predictions_score_one(self, guesses):
        tweets = []
        predictions = {}
        for tweet_id, guess_row in enumerate(guesses):
            truths = [abs(hash((tweet_id, i))) % 5 for i in range(len(guess_row))]
            tweets.append(
                Tweet(
                    tweet_id=tweet_id,
                    user=0,
                    timestamp=0.0,
                    text="m",
                    mentions=tuple(MentionSpan("m", true_entity=t) for t in truths),
                )
            )
            predictions[tweet_id] = truths
        report = mention_and_tweet_accuracy(tweets, predictions)
        assert report.mention_accuracy == 1.0
        assert report.tweet_accuracy == 1.0


# ---------------------------------------------------------------------- #
# one-pass reachability vs the per-target DAG walk (Eq. 4)
# ---------------------------------------------------------------------- #
edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ).filter(lambda edge: edge[0] != edge[1]),
    max_size=60,
)


class TestOnePassReachability:
    @given(
        edges=edges_strategy,
        source=st.integers(min_value=0, max_value=11),
        max_hops=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_pass_matches_per_target(self, edges, source, max_hops):
        from repro.graph.digraph import DiGraph
        from repro.graph.reachability import (
            weighted_reachability,
            weighted_reachability_from,
        )
        from repro.testing.oracles import weighted_reachability_from_per_target

        graph = DiGraph(12, edges)
        one_pass = weighted_reachability_from(graph, source, max_hops=max_hops)
        per_target = weighted_reachability_from_per_target(
            graph, source, max_hops=max_hops
        )
        assert one_pass == per_target
        for target, score in one_pass.items():
            assert score == weighted_reachability(
                graph, source, target, max_hops=max_hops
            )

    @given(edges=edges_strategy, source=st.integers(min_value=0, max_value=11))
    @settings(max_examples=50, deadline=None)
    def test_one_pass_scores_well_formed(self, edges, source):
        from repro.graph.digraph import DiGraph
        from repro.graph.reachability import weighted_reachability_from

        graph = DiGraph(12, edges)
        scores = weighted_reachability_from(graph, source)
        assert source not in scores
        for target in graph.out_neighbors(source):
            assert scores[target] == 1.0  # direct followees (d=1, F_uv=F_u)
        for score in scores.values():
            assert 0.0 < score <= 1.0
