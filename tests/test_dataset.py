"""Activity-based dataset split (Table 2) tests."""

import random

import pytest

from repro.stream.dataset import PAPER_THRESHOLDS, split_by_activity
from repro.stream.tweet import MentionSpan, Tweet


def make_tweets(counts):
    """counts: {user: number of tweets}."""
    tweets = []
    tweet_id = 0
    for user, count in counts.items():
        for i in range(count):
            tweets.append(
                Tweet(
                    tweet_id=tweet_id,
                    user=user,
                    timestamp=float(tweet_id),
                    text="x",
                    mentions=(MentionSpan("x", true_entity=0),),
                )
            )
            tweet_id += 1
    return tweets


class TestSplit:
    def test_threshold_is_strictly_greater(self):
        tweets = make_tweets({1: 10, 2: 11})
        catalog = split_by_activity(tweets, thresholds=(10,))
        d10 = catalog.dataset(10)
        assert d10.users == frozenset({2})  # "more than θ postings"

    def test_nested_datasets(self, small_world):
        catalog = split_by_activity(small_world.tweets)
        previous_users = None
        for threshold in sorted(PAPER_THRESHOLDS):
            users = catalog.dataset(threshold).users
            if previous_users is not None:
                assert users <= previous_users
            previous_users = users

    def test_test_set_only_inactive_users(self):
        tweets = make_tweets({1: 3, 2: 50, 3: 9, 4: 10})
        catalog = split_by_activity(tweets)
        assert catalog.test.users == frozenset({1, 3})

    def test_test_user_cap(self):
        tweets = make_tweets({u: 2 for u in range(500)})
        catalog = split_by_activity(
            tweets, test_user_cap=100, rng=random.Random(0)
        )
        assert catalog.test.num_users == 100

    def test_exclude_users(self):
        tweets = make_tweets({1: 3, 2: 3})
        catalog = split_by_activity(tweets, exclude_users={1})
        assert catalog.test.users == frozenset({2})

    def test_unknown_threshold_raises(self):
        catalog = split_by_activity(make_tweets({1: 5}))
        with pytest.raises(KeyError):
            catalog.dataset(42)

    def test_chronological_output(self, small_world):
        catalog = split_by_activity(small_world.tweets)
        for dataset in list(catalog.by_threshold.values()) + [catalog.test]:
            timestamps = [t.timestamp for t in dataset.tweets]
            assert timestamps == sorted(timestamps)


class TestStats:
    def test_stats_row(self):
        tweets = make_tweets({1: 4})
        catalog = split_by_activity(tweets, thresholds=(1,))
        row = catalog.dataset(1).stats_row()
        assert row["users"] == 1
        assert row["tweets"] == 4
        assert row["mentions_per_tweet"] == 1.0
        assert row["tweets_per_user"] == 4.0

    def test_table2_rows_order(self, small_world):
        catalog = split_by_activity(small_world.tweets)
        rows = catalog.table2_rows()
        assert [r["name"] for r in rows] == ["D10", "D30", "D50", "D70", "D90", "Dtest"]

    def test_empty_dataset_stats(self):
        catalog = split_by_activity([], thresholds=(10,))
        row = catalog.dataset(10).stats_row()
        assert row["tweets"] == 0
        assert row["mentions_per_tweet"] == 0.0
