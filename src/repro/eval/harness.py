"""Chronological replay adapters with latency accounting (Fig. 5(a)).

Each adapter wraps one linking method behind the same interface:
``run(dataset) -> PredictionRun`` with per-mention/per-tweet wall-clock
statistics.  The social-temporal and on-the-fly methods process tweets one
by one; the collective method batches per user (its defining trait) and
amortizes the batch time over the batch's tweets.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.baselines.collective import CollectiveLinker
from repro.baselines.onthefly import OnTheFlyLinker
from repro.core.linker import SocialTemporalLinker
from repro.eval.metrics import Predictions
from repro.stream.dataset import TweetDataset
from repro.stream.tweet import Tweet


@dataclasses.dataclass(frozen=True)
class PredictionRun:
    """Predictions plus timing for one method over one dataset."""

    method: str
    predictions: Predictions
    total_seconds: float
    num_tweets: int
    num_mentions: int

    @property
    def seconds_per_tweet(self) -> float:
        return self.total_seconds / self.num_tweets if self.num_tweets else 0.0

    @property
    def seconds_per_mention(self) -> float:
        return self.total_seconds / self.num_mentions if self.num_mentions else 0.0


def _count_mentions(tweets) -> int:
    return sum(t.num_mentions for t in tweets)


class SocialTemporalAdapter:
    """Replays tweets through :class:`SocialTemporalLinker` one by one."""

    def __init__(self, linker: SocialTemporalLinker, name: str = "social-temporal"):
        self._linker = linker
        self.name = name

    def predict_tweet(self, tweet: Tweet) -> List[Optional[int]]:
        results = self._linker.link_tweet(tweet)
        return [r.result.best.entity_id if r.result.best else None for r in results]

    def run(self, dataset: TweetDataset) -> PredictionRun:
        predictions: Predictions = {}
        start = time.perf_counter()
        for tweet in dataset.tweets:
            predictions[tweet.tweet_id] = self.predict_tweet(tweet)
        elapsed = time.perf_counter() - start
        return PredictionRun(
            method=self.name,
            predictions=predictions,
            total_seconds=elapsed,
            num_tweets=dataset.num_tweets,
            num_mentions=_count_mentions(dataset.tweets),
        )


class OnTheFlyAdapter:
    """Replays tweets through the TAGME-style baseline."""

    def __init__(self, linker: OnTheFlyLinker, name: str = "on-the-fly"):
        self._linker = linker
        self.name = name

    def run(self, dataset: TweetDataset) -> PredictionRun:
        predictions: Predictions = {}
        start = time.perf_counter()
        for tweet in dataset.tweets:
            predictions[tweet.tweet_id] = self._linker.link_tweet(tweet)
        elapsed = time.perf_counter() - start
        return PredictionRun(
            method=self.name,
            predictions=predictions,
            total_seconds=elapsed,
            num_tweets=dataset.num_tweets,
            num_mentions=_count_mentions(dataset.tweets),
        )


class CollectiveAdapter:
    """Runs the collective baseline per author (its batch granularity)."""

    def __init__(self, linker: CollectiveLinker, name: str = "collective"):
        self._linker = linker
        self.name = name

    def run(self, dataset: TweetDataset) -> PredictionRun:
        by_user: Dict[int, List[Tweet]] = {}
        for tweet in dataset.tweets:
            by_user.setdefault(tweet.user, []).append(tweet)
        predictions: Predictions = {}
        start = time.perf_counter()
        for tweets in by_user.values():
            predictions.update(self._linker.link_user(tweets))
        elapsed = time.perf_counter() - start
        return PredictionRun(
            method=self.name,
            predictions=predictions,
            total_seconds=elapsed,
            num_tweets=dataset.num_tweets,
            num_mentions=_count_mentions(dataset.tweets),
        )
