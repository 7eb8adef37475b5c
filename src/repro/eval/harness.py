"""Chronological replay with latency accounting (Fig. 5(a)).

:func:`replay` times one linker over a test stream and returns its
predictions with per-mention/per-tweet wall-clock statistics.  The
social-temporal and on-the-fly methods link one tweet a step, in
test-set order; the collective method links one author's tweets a step
(its defining trait), grouped before the clock starts, so the batch time
is amortized over the batch's tweets.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.baselines.collective import CollectiveLinker
from repro.baselines.onthefly import OnTheFlyLinker
from repro.core.linker import SocialTemporalLinker
from repro.eval.metrics import Predictions
from repro.stream.tweet import Tweet

Linker = Union[SocialTemporalLinker, OnTheFlyLinker, CollectiveLinker]


@dataclasses.dataclass(frozen=True)
class PredictionRun:
    """Predictions plus timing for one method over one dataset."""

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


def replay(linker: Linker, tweets: Sequence[Tweet]) -> PredictionRun:
    """Time ``linker`` over ``tweets``: ``{tweet_id: [entity or None per
    mention]}`` and the seconds its linking steps took."""
    predictions: Predictions = {}
    if isinstance(linker, CollectiveLinker):
        by_author: Dict[int, List[Tweet]] = {}
        for tweet in tweets:
            by_author.setdefault(tweet.user, []).append(tweet)
        start = time.perf_counter()
        for batch in by_author.values():
            predictions.update(linker.link_user(batch))
    else:
        predict = (
            _best_entities(linker)
            if isinstance(linker, SocialTemporalLinker)
            else linker.link_tweet
        )
        start = time.perf_counter()
        for tweet in tweets:
            predictions[tweet.tweet_id] = predict(tweet)
    elapsed = time.perf_counter() - start
    return PredictionRun(
        predictions=predictions,
        total_seconds=elapsed,
        num_tweets=len(tweets),
        num_mentions=sum(t.num_mentions for t in tweets),
    )


def _best_entities(
    linker: SocialTemporalLinker,
) -> Callable[[Tweet], List[Optional[int]]]:
    """``linker.link_tweet`` reduced to each mention's top entity."""
    link_tweet = linker.link_tweet

    def predict(tweet: Tweet) -> List[Optional[int]]:
        return [r.best.entity_id if r.best else None for r in link_tweet(tweet)]

    return predict
