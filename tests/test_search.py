"""Personalized search subsystem tests (store, parser, engine)."""

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.graph.digraph import DiGraph
from repro.search.engine import PersonalizedSearchEngine
from repro.search.query import QueryParser
from repro.search.store import TweetStore
from repro.stream.tweet import MentionSpan, Tweet
from repro.testing.faults import FaultSchedule, FlakyReachabilityProvider


def make_tweet(tweet_id, user, timestamp, text):
    return Tweet(
        tweet_id=tweet_id, user=user, timestamp=timestamp, text=text,
        mentions=(MentionSpan("x"),),
    )


class TestTweetStore:
    def test_add_and_get(self):
        store = TweetStore([make_tweet(1, 0, 0.0, "jordan dunks again")])
        assert store.get(1).text == "jordan dunks again"
        assert store.get(99) is None
        assert 1 in store and 99 not in store

    def test_duplicate_add_ignored(self):
        tweet = make_tweet(1, 0, 0.0, "hello")
        store = TweetStore([tweet, tweet])
        assert len(store) == 1

    def test_keyword_overlap(self):
        store = TweetStore([make_tweet(1, 0, 0.0, "jordan dunks again")])
        assert store.keyword_overlap(1, {"dunks", "misses"}) == 0.5
        assert store.keyword_overlap(1, set()) == 0.0
        assert store.keyword_overlap(42, {"dunks"}) == 0.0

    def test_find_by_keywords_ranked(self):
        store = TweetStore(
            [
                make_tweet(1, 0, 5.0, "dunk highlight reel"),
                make_tweet(2, 0, 9.0, "dunk of the year"),
                make_tweet(3, 0, 1.0, "cooking pasta"),
            ]
        )
        results = store.find_by_keywords({"dunk", "highlight"})
        assert [t.tweet_id for t in results] == [1, 2]


class TestQueryParser:
    def test_mention_and_keywords_split(self, tiny_kb):
        parser = QueryParser(tiny_kb)
        parsed = parser.parse("jordan best dunk video")
        assert parsed.mentions == ["jordan"]
        assert parsed.keywords == {"best", "dunk", "video"}
        assert parsed.has_mention

    def test_multiword_mention(self, tiny_kb):
        parsed = QueryParser(tiny_kb).parse("chicago bulls tickets")
        assert parsed.mentions == ["chicago bulls"]
        assert parsed.keywords == {"tickets"}

    def test_no_mention(self, tiny_kb):
        parsed = QueryParser(tiny_kb).parse("pasta recipe")
        assert not parsed.has_mention
        assert parsed.keywords == {"pasta", "recipe"}

    def test_register_surface(self, tiny_kb):
        parser = QueryParser(tiny_kb)
        parser.register_surface("goat")
        assert parser.parse("the goat returns").mentions == ["goat"]


@pytest.fixture
def engine_parts(tiny_ckb):
    """The linker and the store of :func:`engine`."""
    graph = DiGraph(
        13,
        [
            (0, 10),  # Alice follows @NBAOfficial
            (5, 11),  # Bob follows the ML expert
        ],
    )
    linker = SocialTemporalLinker(
        tiny_ckb,
        graph,
        config=LinkerConfig(burst_threshold=2, influential_users=2),
    )
    store = TweetStore()
    # tiny_ckb records carry tweet_id=-1; add store-resolvable links with
    # real ids and texts for the engine to surface
    tweets = []
    next_id = 100
    for entity_id, text in [(0, "jordan dunk highlight"), (1, "jordan icml talk")]:
        for record in tiny_ckb.tweets_of(entity_id):
            tweets.append(
                Tweet(
                    tweet_id=next_id,
                    user=record.user,
                    timestamp=record.timestamp,
                    text=text,
                    mentions=(MentionSpan("jordan", true_entity=entity_id),),
                )
            )
            next_id += 1
    for tweet in tweets:
        store.add(tweet)
    # re-link with proper tweet ids so the engine can resolve them
    for tweet in tweets:
        tiny_ckb.link_tweet(
            tweet.mentions[0].true_entity, tweet.user, tweet.timestamp, tweet.tweet_id
        )
    return linker, store


@pytest.fixture
def engine(engine_parts):
    return PersonalizedSearchEngine(*engine_parts)


class TestEngine:
    def test_personalized_disambiguation(self, engine):
        now = 100 * DAY
        alice = engine.search("jordan dunk", user=0, now=now)
        assert not alice.used_fallback
        assert alice.linked_entities[0].entity_id == 0
        assert all(hit.entity_id == 0 for hit in alice.hits)
        assert alice.hits  # tweets linked to the basketball entity

        bob = engine.search("jordan talk", user=5, now=now)
        assert bob.linked_entities[0].entity_id == 1

    def test_keyword_relevance_boosts_matching_tweets(self, engine):
        response = engine.search("jordan dunk", user=0, now=100 * DAY)
        top = response.hits[0]
        assert "dunk" in top.tweet.text

    def test_future_tweets_never_returned(self, engine):
        response = engine.search("jordan dunk", user=0, now=0.5 * DAY)
        assert all(hit.tweet.timestamp <= 0.5 * DAY for hit in response.hits)

    def test_keyword_fallback(self, engine):
        response = engine.search("icml talk", user=0, now=100 * DAY)
        # "icml" is a KB surface, so it links; use a mention-free query
        response = engine.search("highlight reel", user=0, now=100 * DAY)
        assert response.used_fallback
        assert response.hits
        assert all(hit.entity_id is None for hit in response.hits)

    def test_limit_respected(self, engine):
        response = engine.search("jordan", user=0, now=100 * DAY, limit=3)
        assert len(response.hits) <= 3

    def test_no_interest_no_hits_via_threshold(self, engine):
        # user 6 is isolated; every candidate scores <= beta + gamma, so the
        # engine abstains and falls back to keywords (of which there are none)
        response = engine.search("jordan", user=6, now=100 * DAY)
        assert response.used_fallback
        assert response.linked_entities == []

    def test_degraded_search_links_the_ranking(self, engine_parts, tiny_ckb):
        """With the index down no interest is measured, so the bound does
        not apply: the isolated user's query links the top of the
        ``β·S_r + γ·S_p`` ranking instead of falling back to keywords."""
        healthy, store = engine_parts
        failing = FlakyReachabilityProvider(
            healthy.reachability_provider, FaultSchedule(error_rate=1.0)
        )
        linker = SocialTemporalLinker(
            tiny_ckb, healthy.graph, config=healthy.config, reachability=failing
        )
        degraded = PersonalizedSearchEngine(linker, store)
        response = degraded.search("jordan", user=6, now=100 * DAY)
        result = linker.link("jordan", user=6, now=100 * DAY)
        assert response.degraded and not response.used_fallback
        assert response.linked_entities == result.top_k(1)
        assert response.hits
        assert all(hit.entity_id == result.best.entity_id for hit in response.hits)
