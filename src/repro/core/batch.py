"""Micro-batch linking for firehose throughput (Sec. 5.2.2).

The paper argues the framework suits real-time streams because mentions are
linked independently; independence also means *work sharing*: in any small
time window the stream contains many mentions of the same hot surfaces, and
for a fixed surface the candidate set, popularity shares and (bucketed)
recency shares are identical for every author.  Only the user-interest term
differs per author — and it repeats too, whenever the same user mentions
the same candidates.

:class:`MicroBatchLinker` exploits this: requests are grouped by surface,
per-surface features are computed once per recency bucket, and interest is
memoized per (user, candidate set).  With ``recency_bucket = 0`` results
are bit-identical to :meth:`SocialTemporalLinker.link`; a coarser bucket
(e.g. 60 s) trades timestamp resolution far below the sliding window τ for
another cache dimension.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.linker import (
    LinkResult,
    SocialTemporalLinker,
    record_degradation,
    record_link_outcome,
)
from repro.core.scoring import combine_scores
from repro.obs.metrics import METRICS
from repro.obs.stage import stage
from repro.stream.tweet import Tweet


@dataclasses.dataclass(frozen=True)
class LinkRequest:
    """One mention to link: ``(m, d.u, d.t)``."""

    surface: str
    user: int
    now: float


class MicroBatchLinker:
    """Work-sharing wrapper around a :class:`SocialTemporalLinker`."""

    def __init__(
        self, linker: SocialTemporalLinker, recency_bucket: float = 0.0
    ) -> None:
        """``recency_bucket`` (seconds) quantizes ``now`` for recency
        sharing; 0 disables quantization (exact per-request recency)."""
        if recency_bucket < 0:
            raise ValueError("recency_bucket must be non-negative")
        self._linker = linker
        self._bucket = recency_bucket

    @property
    def linker(self) -> SocialTemporalLinker:
        """The wrapped linker (the snapshot protocol applies deltas to it)."""
        return self._linker

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #
    def link_batch(self, requests: Sequence[LinkRequest]) -> List[LinkResult]:
        """Link a batch of mentions, sharing per-surface computation.

        Output order matches input order.  One author outside the follow
        graph raises :class:`~repro.errors.UnknownUserError`, and one ``now``
        that is not finite ``ValueError``, for the whole batch, before any
        mention is scored.
        """
        linker = self._linker
        for request in requests:
            linker._require_user(request.user)
            linker._require_now(request.now)
        config = linker.config
        # shared per surface: candidate set + popularity
        candidate_cache: Dict[str, Tuple[int, ...]] = {}
        popularity_cache: Dict[str, Dict[int, float]] = {}
        # shared per (surface, bucketed now): recency shares
        recency_cache: Dict[Tuple[str, float], Dict[int, float]] = {}
        # shared per (user, candidate set): interest shares
        interest_cache: Dict[Tuple[int, Tuple[int, ...]], Dict[int, float]] = {}

        results: List[LinkResult] = []
        for request in requests:
            # Cache counters below are keyed per *distinct surface* (or
            # per surface × recency bucket).  The (user, candidate-set)
            # interest cache is deliberately absent from the metrics
            # registry.
            METRICS.incr("link.requests")
            with stage(
                "link.request", surface=request.surface, user=request.user
            ) as root:
                candidates = candidate_cache.get(request.surface)
                if candidates is None:
                    METRICS.incr("batch.candidate_cache.miss")
                    with stage("link.candidates"):
                        candidates = linker._candidate_set(request.surface)
                    candidate_cache[request.surface] = candidates
                else:
                    METRICS.incr("batch.candidate_cache.hit")
                METRICS.observe(
                    "link.candidates_per_request", float(len(candidates))
                )
                if root.recording:
                    root.set_attribute("candidates", len(candidates))
                if not candidates:
                    METRICS.incr("link.no_candidates")
                    result = LinkResult(
                        surface=request.surface,
                        user=request.user,
                        timestamp=request.now,
                        ranked=(),
                    )
                    record_link_outcome(root, result, config)
                    results.append(result)
                    continue

                popularity = popularity_cache.get(request.surface)
                if popularity is None:
                    METRICS.incr("batch.popularity_cache.miss")
                    with stage("link.popularity"):
                        popularity = linker._popularity_scores(candidates)
                    popularity_cache[request.surface] = popularity
                else:
                    METRICS.incr("batch.popularity_cache.hit")

                bucketed = self._quantize(request.now)
                recency_key = (request.surface, bucketed)
                recency = recency_cache.get(recency_key)
                if recency is None:
                    METRICS.incr("batch.recency_cache.miss")
                    with stage("link.recency"):
                        recency = linker._recency_scores(candidates, bucketed)
                    recency_cache[recency_key] = recency
                else:
                    METRICS.incr("batch.recency_cache.hit")

                # Same degradation ladder as the single-mention path: a
                # faulted interest computation falls back to the no-interest
                # bound β·S_r + γ·S_p instead of letting the error escape
                # the batch.  Degraded scores are NOT cached — the next
                # request for the same (user, candidates) retries, exactly
                # like sequential linking does once a deadline resets or a
                # breaker half-opens.
                degradation: Optional[str] = None
                interest_key = (request.user, candidates)
                interest = interest_cache.get(interest_key)
                if interest is None:
                    interest, degradation = linker._interest_or_degradation(
                        request.user, candidates
                    )
                    if degradation is None:
                        interest_cache[interest_key] = interest
                if degradation is not None:
                    record_degradation(root, degradation)

                with stage("link.combine"):
                    ranked = combine_scores(
                        candidates, interest, recency, popularity, config
                    )
                result = LinkResult(
                    surface=request.surface,
                    user=request.user,
                    timestamp=request.now,
                    ranked=tuple(ranked),
                    degradation=degradation,
                )
                record_link_outcome(root, result, config)
                results.append(result)
        return results

    def link_tweets(self, tweets: Sequence[Tweet]) -> Dict[int, List[LinkResult]]:
        """Batch-link every mention of a tweet window, grouped per tweet."""
        requests: List[LinkRequest] = []
        layout: List[Tuple[int, int]] = []
        for tweet in tweets:
            for index, mention in enumerate(tweet.mentions):
                requests.append(
                    LinkRequest(
                        surface=mention.surface, user=tweet.user, now=tweet.timestamp
                    )
                )
                layout.append((tweet.tweet_id, index))
        flat = self.link_batch(requests)
        grouped: Dict[int, List[LinkResult]] = {t.tweet_id: [] for t in tweets}
        for (tweet_id, _), result in zip(layout, flat):
            grouped[tweet_id].append(result)
        return grouped

    def _quantize(self, now: float) -> float:
        if self._bucket <= 0:
            return now
        return (now // self._bucket) * self._bucket
