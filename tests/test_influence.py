"""User influence (Eq. 6 / Eq. 7) tests on the Fig.-1 miniature.

tiny_ckb users: 10 ≈ @NBAOfficial (9 tweets on e0, 1 on e4),
11 ≈ ML expert (4 tweets on e1, 1 stray on e0), 12 ≈ sneakerhead (3 on e2).
Candidate set of "jordan": {0, 1, 2}.
"""

import math

import pytest

from repro.core.influence import (
    entropy_influence,
    tfidf_influence,
    top_influential_users,
)

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
