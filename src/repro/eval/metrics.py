"""Accuracy metrics (Sec. 5.2.1).

The paper reports two accuracies: the fraction of correctly linked
*mentions*, and the fraction of *tweets* whose mentions are all correct
(hence tweet accuracy ≤ mention accuracy, as Fig. 4(a) shows).  Ground
truth comes from the generator's planted labels instead of the paper's
human annotators.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.kb.knowledgebase import Knowledgebase
from repro.stream.tweet import Tweet

#: predictions[tweet_id][i] = predicted entity for mention i (None = abstain)
Predictions = Dict[int, List[Optional[int]]]


@dataclasses.dataclass(frozen=True)
class AccuracyReport:
    """Mention- and tweet-level accuracy over one dataset."""

    mention_accuracy: float
    tweet_accuracy: float
    num_mentions: int
    num_tweets: int


def mention_and_tweet_accuracy(
    tweets: Sequence[Tweet], predictions: Predictions
) -> AccuracyReport:
    """Score predictions against planted ground truth.

    Only labeled mentions count; tweets without any labeled mention are
    skipped entirely.  A missing prediction entry or ``None`` counts as
    wrong (the system abstained or failed to produce candidates).
    """
    mention_total = 0
    mention_correct = 0
    tweet_total = 0
    tweet_correct = 0
    for tweet in tweets:
        labeled = [
            (i, m.true_entity)
            for i, m in enumerate(tweet.mentions)
            if m.true_entity is not None
        ]
        if not labeled:
            continue
        tweet_total += 1
        predicted = predictions.get(tweet.tweet_id, [])
        all_correct = True
        for index, truth in labeled:
            mention_total += 1
            guess = predicted[index] if index < len(predicted) else None
            if guess == truth:
                mention_correct += 1
            else:
                all_correct = False
        if all_correct:
            tweet_correct += 1
    return AccuracyReport(
        mention_accuracy=mention_correct / mention_total if mention_total else 0.0,
        tweet_accuracy=tweet_correct / tweet_total if tweet_total else 0.0,
        num_mentions=mention_total,
        num_tweets=tweet_total,
    )


def accuracy_by_tweet_length(
    tweets: Sequence[Tweet], predictions: Predictions, max_length: int = 4
) -> Dict[int, AccuracyReport]:
    """Fig. 6(c): accuracy partitioned by mentions-per-tweet (1..max)."""
    buckets: Dict[int, List[Tweet]] = {}
    for tweet in tweets:
        length = len(tweet.labeled_mentions())
        if 1 <= length <= max_length:
            buckets.setdefault(length, []).append(tweet)
    return {
        length: mention_and_tweet_accuracy(bucket, predictions)
        for length, bucket in sorted(buckets.items())
    }


def accuracy_by_connectivity(
    tweets: Sequence[Tweet],
    predictions: Predictions,
    graph,
    thresholds: Sequence[int] = (0, 3, 10),
) -> Dict[str, AccuracyReport]:
    """Accuracy bucketed by the author's followee count.

    The social-interest feature only fires for users who follow somebody;
    this breakdown quantifies the paper's motivation: connected users gain
    the most from social context, isolated "information seekers" fall back
    to recency/popularity.  Buckets are right-open: ``[t_i, t_{i+1})`` with
    a final open-ended bucket.
    """
    edges = list(thresholds) + [None]
    buckets: Dict[str, List[Tweet]] = {}
    labels = []
    for low, high in zip(edges, edges[1:]):
        label = f"followees {low}+" if high is None else f"followees {low}-{high - 1}"
        labels.append((label, low, high))
        buckets[label] = []
    for tweet in tweets:
        degree = graph.out_degree(tweet.user)
        for label, low, high in labels:
            if degree >= low and (high is None or degree < high):
                buckets[label].append(tweet)
                break
    return {
        label: mention_and_tweet_accuracy(bucket, predictions)
        for (label, _, _) in labels
        for bucket in [buckets[label]]
        if bucket
    }


def accuracy_by_category(
    tweets: Sequence[Tweet], predictions: Predictions, kb: Knowledgebase
) -> Dict[str, float]:
    """Appendix C.1: mention accuracy per entity category."""
    totals: Dict[str, int] = {}
    correct: Dict[str, int] = {}
    for tweet in tweets:
        predicted = predictions.get(tweet.tweet_id, [])
        for index, mention in enumerate(tweet.mentions):
            if mention.true_entity is None:
                continue
            category = str(kb.entity(mention.true_entity).category)
            totals[category] = totals.get(category, 0) + 1
            guess = predicted[index] if index < len(predicted) else None
            if guess == mention.true_entity:
                correct[category] = correct.get(category, 0) + 1
    return {
        category: correct.get(category, 0) / total
        for category, total in sorted(totals.items())
    }
