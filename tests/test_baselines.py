"""On-the-fly and collective baseline tests."""

import pytest

from repro.baselines.collective import CollectiveLinker
from repro.baselines.common import IntraTweetScorer, other_candidates
from repro.baselines.onthefly import OnTheFlyLinker
from repro.config import DAY
from repro.kb.complemented import ComplementedKnowledgebase
from repro.stream.tweet import MentionSpan, Tweet


def make_tweet(tweet_id, user, text, surfaces, timestamp=0.0):
    return Tweet(
        tweet_id=tweet_id,
        user=user,
        timestamp=timestamp,
        text=text,
        mentions=tuple(MentionSpan(s) for s in surfaces),
    )


class TestIntraTweetScorer:
    def test_popularity_prior(self, tiny_ckb):
        scorer = IntraTweetScorer(tiny_ckb)
        prior = scorer.popularity_prior([0, 1, 2])
        assert prior[0] == pytest.approx(10 / 17)

    def test_context_similarity_prefers_topical_description(self, tiny_ckb):
        scorer = IntraTweetScorer(tiny_ckb)
        scores = scorer.context_similarity([0, 1], "icml inference talk")
        assert scores[1] > scores[0]

    def test_coherence_votes_through_wlm(self, tiny_ckb):
        scorer = IntraTweetScorer(tiny_ckb)
        # other mention is unambiguous "chicago bulls" -> votes for e0
        coherence = scorer.coherence([0, 1, 2], [[3]])
        assert coherence[0] > coherence[1]

    def test_single_mention_no_coherence(self, tiny_ckb):
        scorer = IntraTweetScorer(tiny_ckb)
        coherence = scorer.coherence([0, 1], [])
        assert coherence == {0: 0.0, 1: 0.0}

    def test_other_candidates_helper(self):
        sets = [(1,), (2,), (3,)]
        assert other_candidates(sets, 1) == [(1,), (3,)]

    def test_relatedness_cached_and_symmetric(self, tiny_ckb):
        scorer = IntraTweetScorer(tiny_ckb)
        assert scorer.relatedness(0, 3) == scorer.relatedness(3, 0)


class TestOnTheFlyLinker:
    def test_coherence_disambiguates(self, tiny_ckb):
        linker = OnTheFlyLinker(tiny_ckb)
        tweet = make_tweet(1, 99, "jordan chicago bulls", ["jordan", "chicago bulls"])
        predictions = linker.link_tweet(tweet)
        assert predictions == [0, 3]

    def test_context_disambiguates(self, tiny_ckb):
        linker = OnTheFlyLinker(tiny_ckb)
        tweet = make_tweet(1, 99, "jordan icml inference model talk", ["jordan"])
        assert linker.link_tweet(tweet) == [1]

    def test_unknown_mention_gives_none(self, tiny_ckb):
        linker = OnTheFlyLinker(tiny_ckb)
        tweet = make_tweet(1, 99, "qqq", ["qqqqqq"])
        assert linker.link_tweet(tweet) == [None]

    def test_popularity_fallback_without_context(self, tiny_ckb):
        linker = OnTheFlyLinker(tiny_ckb)
        tweet = make_tweet(1, 99, "jordan", ["jordan"])
        assert linker.link_tweet(tweet) == [0]  # most popular candidate


class TestCollectiveLinker:
    def test_inter_tweet_interest_propagates(self, tiny_ckb):
        """A user's unambiguous ML tweets should pull her ambiguous
        "jordan" mention toward the ML entity."""
        linker = CollectiveLinker(tiny_ckb)
        tweets = [
            make_tweet(1, 50, "icml paper accepted", ["icml"]),
            make_tweet(2, 50, "machine learning rocks", ["machine learning"]),
            make_tweet(3, 50, "jordan gave a talk", ["jordan"]),
        ]
        predictions = linker.link_user(tweets)
        assert predictions[1] == [5]
        assert predictions[2] == [6]
        assert predictions[3] == [1]

    def test_single_tweet_batch(self, tiny_ckb):
        linker = CollectiveLinker(tiny_ckb)
        tweet = make_tweet(7, 50, "jordan", ["jordan"])
        assert linker.link_user([tweet]) == {7: [0]}  # popularity prior fallback

    def test_empty_batch(self, tiny_ckb):
        linker = CollectiveLinker(tiny_ckb)
        assert linker.link_user([]) == {}

    def test_complement_kb_records_links(self, tiny_kb):
        ckb = ComplementedKnowledgebase(tiny_kb)
        linker = CollectiveLinker(ckb)
        tweets = [
            make_tweet(1, 50, "icml paper", ["icml"], timestamp=DAY),
            make_tweet(2, 60, "nba game", ["nba"], timestamp=2 * DAY),
        ]
        linked = linker.complement_kb(tweets)
        assert linked == 2
        assert ckb.count(5) == 1
        assert ckb.count(4) == 1
        assert list(ckb.link_columns(5)[0]) == [50]
