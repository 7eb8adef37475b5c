"""Activity-filtered tweet datasets (Sec. 5.1.2, Table 2).

The paper complements the knowledgebase with tweets of *active* users
(more than θ postings, θ ∈ {10, 30, 50, 70, 90} → D10..D90) and evaluates
on a sample of *inactive* users (< 10 postings) → Dtest.  This module
reproduces that split on any tweet stream.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.stream.tweet import Tweet

#: Activity thresholds of the paper's D-series.
PAPER_THRESHOLDS: Tuple[int, ...] = (10, 30, 50, 70, 90)
#: Users with fewer than this many postings count as inactive, the
#: population the test set is sampled from.
INACTIVE_BELOW = 10


@dataclasses.dataclass(frozen=True)
class TweetDataset:
    """A named subset of the stream, chronologically ordered."""

    name: str
    tweets: Tuple[Tweet, ...]
    users: frozenset

    @property
    def num_tweets(self) -> int:
        return len(self.tweets)

    @property
    def num_users(self) -> int:
        return len(self.users)

    def stats_row(self) -> Dict[str, float]:
        """Table 2 row: #user, #tweet, plus mention density diagnostics."""
        total_mentions = sum(t.num_mentions for t in self.tweets)
        return {
            "name": self.name,
            "users": self.num_users,
            "tweets": self.num_tweets,
            "mentions_per_tweet": (
                total_mentions / self.num_tweets if self.tweets else 0.0
            ),
            "tweets_per_user": (
                self.num_tweets / self.num_users if self.users else 0.0
            ),
        }


@dataclasses.dataclass
class DatasetCatalog:
    """The D-series plus the inactive-user test set for one world."""

    by_threshold: Dict[int, TweetDataset]
    test: TweetDataset

    def dataset(self, threshold: int) -> TweetDataset:
        try:
            return self.by_threshold[threshold]
        except KeyError:
            raise KeyError(
                f"no dataset for threshold {threshold}; "
                f"available: {sorted(self.by_threshold)}"
            ) from None

    def table2_rows(self) -> List[Dict[str, float]]:
        rows = [
            self.by_threshold[threshold].stats_row()
            for threshold in sorted(self.by_threshold)
        ]
        rows.append(self.test.stats_row())
        return rows


def split_by_activity(
    tweets: Sequence[Tweet],
    thresholds: Sequence[int] = PAPER_THRESHOLDS,
    test_user_cap: int = 200,
    exclude_users: Optional[Set[int]] = None,
    rng: Optional[random.Random] = None,
) -> DatasetCatalog:
    """Split a stream into the D-series and an inactive-user test set.

    Parameters
    ----------
    tweets:
        The full stream (any order; outputs are re-sorted chronologically).
    thresholds:
        Activity thresholds θ; ``D<θ>`` keeps tweets of users with *more
        than* θ postings, matching the paper's wording.
    test_user_cap:
        Maximum number of inactive users sampled for the test set
        (paper: 200).
    exclude_users:
        Users never eligible for the test set (e.g. hub accounts).
    """
    rng = rng or random.Random(0)
    counts: Dict[int, int] = {}
    for tweet in tweets:
        counts[tweet.user] = counts.get(tweet.user, 0) + 1
    ordered = sorted(tweets, key=lambda t: (t.timestamp, t.tweet_id))

    by_threshold: Dict[int, TweetDataset] = {}
    for threshold in thresholds:
        active = {user for user, count in counts.items() if count > threshold}
        subset = tuple(t for t in ordered if t.user in active)
        by_threshold[threshold] = TweetDataset(
            name=f"D{threshold}", tweets=subset, users=frozenset(active)
        )

    excluded = exclude_users or set()
    inactive = sorted(
        user
        for user, count in counts.items()
        if count < INACTIVE_BELOW and user not in excluded
    )
    if len(inactive) > test_user_cap:
        inactive = rng.sample(inactive, test_user_cap)
    test_users = frozenset(inactive)
    test_tweets = tuple(t for t in ordered if t.user in test_users)
    test = TweetDataset(name="Dtest", tweets=test_tweets, users=test_users)
    return DatasetCatalog(by_threshold=by_threshold, test=test)
