"""User influence (Eq. 6 / Eq. 7) tests on the Fig.-1 miniature.

tiny_ckb users: 10 ≈ @NBAOfficial (9 tweets on e0, 1 on e4),
11 ≈ ML expert (4 tweets on e1, 1 stray on e0), 12 ≈ sneakerhead (3 on e2).
Candidate set of "jordan": {0, 1, 2}.
"""

import math

import pytest

from repro.core.influence import (
    _FORMULAS,
    entropy_influence,
    influential_user_sets,
    tfidf_influence,
    top_influential_users,
)
from repro.testing.oracles import influential_users_by_definition

from conftest import ckb_of

CANDIDATES = (0, 1, 2)


class TestTfidfInfluence:
    def test_hand_computed_nba_official(self, tiny_ckb):
        # share 9/10, mentions 1 of 3 candidates -> idf log(3)
        expected = (9 / 10) * math.log(3)
        assert tfidf_influence(tiny_ckb, 10, 0, CANDIDATES) == pytest.approx(expected)

    def test_hand_computed_ml_expert_in_basketball(self, tiny_ckb):
        # share 1/10, mentions 2 of 3 candidates -> idf log(3/2)
        expected = (1 / 10) * math.log(3 / 2)
        assert tfidf_influence(tiny_ckb, 11, 0, CANDIDATES) == pytest.approx(expected)

    def test_non_member_is_zero(self, tiny_ckb):
        assert tfidf_influence(tiny_ckb, 12, 0, CANDIDATES) == 0.0

    def test_empty_community_is_zero(self, tiny_ckb):
        assert tfidf_influence(tiny_ckb, 10, 3, CANDIDATES) == 0.0

    def test_mentioning_all_candidates_zeroes_idf(self, tiny_ckb):
        tiny_ckb.link_tweet(1, user=10, timestamp=0.0)
        tiny_ckb.link_tweet(2, user=10, timestamp=0.0)
        assert tfidf_influence(tiny_ckb, 10, 0, CANDIDATES) == 0.0


class TestEntropyInfluence:
    def test_fully_discriminative_user_maximal(self, tiny_ckb):
        # user 10 only tweets candidate e0 -> entropy 0 -> minimal discount
        assert entropy_influence(tiny_ckb, 10, 0, CANDIDATES) == pytest.approx(
            (9 / 10) / 2.0
        )

    def test_hand_computed_biased_user(self, tiny_ckb):
        # user 11: candidate counts (1, 4, 0) -> H = -(0.2 ln .2 + .8 ln .8)
        entropy = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
        expected = (4 / 4) / (2.0 + entropy)
        assert entropy_influence(tiny_ckb, 11, 1, CANDIDATES) == pytest.approx(
            expected, rel=1e-6
        )

    def test_occasional_off_topic_posting_tolerated(self, tiny_ckb):
        """The paper's argument for entropy over tf-idf (Sec. 4.1.2).

        Compare how much influence a biased-but-impure user (user 11: 4
        tweets on e1, 1 stray on e0) *retains* relative to a perfectly
        clean user with the same tweet share: the entropy estimator must
        forgive the stray posting far more than tf-idf does.
        """
        tfidf = tfidf_influence(tiny_ckb, 11, 1, CANDIDATES)
        entropy = entropy_influence(tiny_ckb, 11, 1, CANDIDATES)
        share = 4 / 4
        tfidf_clean = share * math.log(len(CANDIDATES))
        entropy_clean = share / 2.0
        assert entropy / entropy_clean > 2 * (tfidf / tfidf_clean)

    def test_non_member_zero(self, tiny_ckb):
        assert entropy_influence(tiny_ckb, 12, 1, CANDIDATES) == 0.0


class TestTopInfluentialUsers:
    def test_ranking(self, tiny_ckb):
        top = top_influential_users(tiny_ckb, 0, CANDIDATES, k=2, method="entropy")
        assert top[0] == 10  # @NBAOfficial dominates its community

    def test_k_limits_result(self, tiny_ckb):
        assert len(top_influential_users(tiny_ckb, 0, CANDIDATES, k=1)) == 1

    def test_k_zero_is_empty(self, tiny_ckb):
        assert top_influential_users(tiny_ckb, 0, CANDIDATES, k=0) == []

    def test_short_community(self, tiny_ckb):
        top = top_influential_users(tiny_ckb, 2, CANDIDATES, k=10)
        assert top == [12]

    def test_empty_community(self, tiny_ckb):
        assert top_influential_users(tiny_ckb, 5, CANDIDATES, k=3) == []

    def test_unknown_method_rejected(self, tiny_ckb):
        with pytest.raises(ValueError):
            top_influential_users(tiny_ckb, 0, CANDIDATES, k=3, method="magic")

    def test_deterministic_tie_break(self, tiny_ckb):
        tiny_ckb.link_tweet(5, user=3, timestamp=0.0)
        tiny_ckb.link_tweet(5, user=1, timestamp=0.0)
        top = top_influential_users(tiny_ckb, 5, (5, 0), k=2, method="tfidf")
        assert top == [1, 3]  # equal influence -> ascending user id

    @pytest.mark.parametrize("method", ["tfidf", "entropy"])
    def test_entity_outside_its_candidate_set(self, tiny_ckb, method):
        # e0 scored against {e1, e2}: user 10 (only e0) has no tweet on any
        # candidate and scores 0; user 11 (1 on e0, 4 on e1) still ranks
        assert top_influential_users(tiny_ckb, 0, (1, 2), k=3, method=method) == [11]


def rankings(ckb, candidates, k, method):
    """Both entry points, checked against each other and against the
    per-user definition sorted by ``(-influence, user)``."""
    sets = influential_user_sets(ckb, candidates, candidates, k, method)
    for entity in candidates:
        assert sets[entity] == influential_users_by_definition(
            ckb, entity, candidates, k, method
        )
        assert sets[entity] == top_influential_users(ckb, entity, candidates, k, method)
    return sets


class TestFinalistSelection:
    """The scan stops at the first user whose lone-user bound falls behind
    the k-th best; the cut must fall where the exhaustive ranking puts it."""

    #: e0: user 5 leads, users 9 and 2 tie on count 3 (9 was linked first),
    #: and user 7 splits 8 / 8 over e0 and e1: entropy ln 2, so she scores
    #: (8/20)/(2+ln 2) = 0.1485 — between user 5's 0.15 and the tied 0.075.
    STRADDLE = {0: {5: 6, 9: 3, 2: 3, 7: 8}, 1: {7: 8, 4: 1}}

    def test_tie_at_the_cut_goes_to_the_lower_id(self):
        ckb = ckb_of(self.STRADDLE)
        assert rankings(ckb, (0, 1), 3, "entropy")[0] == [5, 7, 2]
        assert rankings(ckb, (0, 1), 4, "entropy")[0] == [5, 7, 2, 9]
        # Eq. 6 zeroes a user who sits in every candidate community
        assert rankings(ckb, (0, 1), 2, "tfidf")[0] == [5, 2]
        assert rankings(ckb, (0, 1), 3, "tfidf") == {0: [5, 2, 9], 1: [4]}

    @pytest.mark.parametrize("method", ["tfidf", "entropy"])
    def test_all_shared_and_none_shared(self, method):
        # every user of e0 also tweets about e1; nobody of e2 tweets elsewhere
        ckb = ckb_of({0: {1: 4, 2: 1}, 1: {1: 1, 2: 4, 6: 2}, 2: {3: 2, 4: 2, 8: 5}})
        sets = rankings(ckb, (0, 1, 2), 2, method)
        assert sets[0] == [1, 2]
        assert sets[2] == [8, 3]

    @pytest.mark.parametrize("method", ["tfidf", "entropy"])
    @pytest.mark.parametrize("k", [4, 5, 50])
    def test_k_at_least_the_community(self, method, k):
        ckb = ckb_of(self.STRADDLE)
        expected = [5, 7, 2, 9] if method == "entropy" else [5, 2, 9]
        assert rankings(ckb, (0, 1), k, method)[0] == expected

    def test_shared_user_above_and_below_every_finalist(self):
        # user 7 holds most of D_0 and a single stray tweet elsewhere: first
        above = ckb_of({0: {7: 30, 1: 2, 2: 1}, 1: {7: 1, 3: 5}})
        assert rankings(above, (0, 1), 2, "entropy")[0] == [7, 1]
        # the other way round she trails every single-community finalist
        below = ckb_of({0: {7: 1, 1: 2, 2: 3}, 1: {7: 30, 3: 5}})
        assert rankings(below, (0, 1), 2, "entropy")[0] == [2, 1]
        assert rankings(below, (0, 1), 3, "entropy")[0] == [2, 1, 7]

    def test_a_lone_user_tying_the_kth_key_at_a_lower_count(self):
        # Eq. 6 over four candidates: user 9 (2 of D_0's 3 tweets, one
        # stray on e1) scores (2/3)·log 2, exactly what user 3's lone
        # tweet scores, (1/3)·log 4.  The bound reached at count 1 ties the
        # k-th value, and the lower id must still be let in.
        ckb = ckb_of({0: {9: 2, 3: 1}, 1: {9: 1}, 2: {}, 3: {}})
        assert tfidf_influence(ckb, 9, 0, (0, 1, 2, 3)) == tfidf_influence(
            ckb, 3, 0, (0, 1, 2, 3)
        )
        assert rankings(ckb, (0, 1, 2, 3), 1, "tfidf")[0] == [3]
        assert rankings(ckb, (0, 1, 2, 3), 2, "tfidf")[0] == [3, 9]

    @pytest.mark.parametrize("method", sorted(_FORMULAS))
    @pytest.mark.parametrize("num_candidates", [2, 3, 7])
    def test_single_community_score_strictly_increases_with_count(
        self, method, num_candidates
    ):
        """What the selection rests on: on ``(count,)`` the term is one
        constant of the set, so the score orders such users by count.  An
        estimator added to ``_FORMULAS`` without this must fail here, not
        mis-rank silently."""
        term, op = _FORMULAS[method]
        for community_size in (1, 7, 1000, 10**6 + 3):
            counts = range(1, min(community_size, 400) + 1)
            assert {term((count,), num_candidates) for count in counts} == {
                term((1,), num_candidates)
            }
            scores = [
                op(count / community_size, term((count,), num_candidates))
                for count in counts
            ]
            assert all(low < high for low, high in zip(scores, scores[1:]))
            assert scores[0] > 0.0
