"""Accuracy metric tests."""

from repro.eval.metrics import (
    accuracy_by_category,
    accuracy_by_connectivity,
    accuracy_by_tweet_length,
    mention_and_tweet_accuracy,
)
from repro.kb.entity import EntityCategory
from repro.kb.knowledgebase import Knowledgebase
from repro.stream.tweet import MentionSpan, Tweet


def tweet_with(tweet_id, truths):
    return Tweet(
        tweet_id=tweet_id,
        user=0,
        timestamp=0.0,
        text="m",
        mentions=tuple(MentionSpan("m", true_entity=t) for t in truths),
    )


class TestMentionAndTweetAccuracy:
    def test_all_correct(self):
        tweets = [tweet_with(1, [10, 20])]
        report = mention_and_tweet_accuracy(tweets, {1: [10, 20]})
        assert report.mention_accuracy == 1.0
        assert report.tweet_accuracy == 1.0

    def test_partial_tweet_counts_mentions_only(self):
        tweets = [tweet_with(1, [10, 20])]
        report = mention_and_tweet_accuracy(tweets, {1: [10, 99]})
        assert report.mention_accuracy == 0.5
        assert report.tweet_accuracy == 0.0

    def test_tweet_accuracy_leq_mention_accuracy(self):
        tweets = [tweet_with(1, [10, 20]), tweet_with(2, [30])]
        report = mention_and_tweet_accuracy(tweets, {1: [10, 99], 2: [30]})
        assert report.tweet_accuracy <= report.mention_accuracy

    def test_missing_prediction_is_wrong(self):
        tweets = [tweet_with(1, [10])]
        report = mention_and_tweet_accuracy(tweets, {})
        assert report.mention_accuracy == 0.0

    def test_none_prediction_is_wrong(self):
        tweets = [tweet_with(1, [10])]
        report = mention_and_tweet_accuracy(tweets, {1: [None]})
        assert report.mention_accuracy == 0.0

    def test_short_prediction_list(self):
        tweets = [tweet_with(1, [10, 20])]
        report = mention_and_tweet_accuracy(tweets, {1: [10]})
        assert report.mention_accuracy == 0.5

    def test_unlabeled_mentions_skipped(self):
        tweet = Tweet(
            tweet_id=1, user=0, timestamp=0.0, text="m",
            mentions=(MentionSpan("m", true_entity=None), MentionSpan("m", true_entity=5)),
        )
        report = mention_and_tweet_accuracy([tweet], {1: [99, 5]})
        assert report.num_mentions == 1
        assert report.mention_accuracy == 1.0

    def test_empty_dataset(self):
        report = mention_and_tweet_accuracy([], {})
        assert report.mention_accuracy == 0.0
        assert report.num_tweets == 0


class TestByTweetLength:
    def test_buckets(self):
        tweets = [tweet_with(1, [10]), tweet_with(2, [10, 20]), tweet_with(3, [30])]
        predictions = {1: [10], 2: [10, 20], 3: [99]}
        buckets = accuracy_by_tweet_length(tweets, predictions)
        assert buckets[1].mention_accuracy == 0.5
        assert buckets[2].mention_accuracy == 1.0

    def test_long_tweets_excluded(self):
        tweets = [tweet_with(1, [1, 2, 3, 4, 5])]
        assert accuracy_by_tweet_length(tweets, {}, max_length=4) == {}


class TestByCategory:
    def test_grouping(self):
        kb = Knowledgebase()
        kb.add_entity("p", category=EntityCategory.PERSON)
        kb.add_entity("l", category=EntityCategory.LOCATION)
        tweets = [tweet_with(1, [0, 1])]
        accuracy = accuracy_by_category(tweets, {1: [0, 99]}, kb)
        assert accuracy["Person"] == 1.0
        assert accuracy["Location"] == 0.0


class TestConnectivityMetric:
    def test_buckets_partition_users(self, small_context):
        run = small_context.social_temporal().run(small_context.test_dataset)
        buckets = accuracy_by_connectivity(
            small_context.test_dataset.tweets,
            run.predictions,
            small_context.world.graph,
        )
        total = sum(report.num_tweets for report in buckets.values())
        assert total == sum(
            1
            for t in small_context.test_dataset.tweets
            if t.labeled_mentions()
        )

    def test_connected_users_gain_from_social_context(self, small_context):
        run = small_context.social_temporal().run(small_context.test_dataset)
        buckets = accuracy_by_connectivity(
            small_context.test_dataset.tweets,
            run.predictions,
            small_context.world.graph,
            thresholds=(0, 3),
        )
        isolated = buckets.get("followees 0-2")
        connected = buckets.get("followees 3+")
        if isolated and connected and isolated.num_mentions > 30:
            assert connected.mention_accuracy > isolated.mention_accuracy
