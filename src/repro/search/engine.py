"""The personalized microblog search engine (Sec. 3.2.2).

Pipeline per query:

1. annotate the query with :class:`~repro.core.pipeline.TextLinkingPipeline`
   — the Appendix-A gazetteer finds the entity mentions and the linker
   ranks each one with the querying user's social-temporal context — and
   keep each mention's top entity if its score clears the Appendix-D
   no-interest bound; the words no mention covers are the keywords;
2. collect the tweets linked to those entities in the complemented
   knowledgebase and rank them by a freshness-decayed keyword-relevance
   score;
3. queries without any linkable mention fall back to plain keyword search
   over the tweet store.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Set

from repro.config import DAY
from repro.core.linker import SocialTemporalLinker
from repro.core.pipeline import AnnotatedText, TextLinkingPipeline
from repro.core.scoring import ScoredCandidate
from repro.search.store import TweetStore
from repro.stream.tweet import Tweet
from repro.text.tokenize import tokenize_words


@dataclasses.dataclass(frozen=True)
class SearchHit:
    """One ranked result tweet."""

    tweet: Tweet
    score: float
    #: Entity that pulled this tweet in (None for keyword-fallback hits).
    entity_id: Optional[int]


@dataclasses.dataclass(frozen=True)
class SearchResponse:
    """The outcome of one personalized query."""

    #: The query's recognized mentions, each with the linker's ranking.
    annotation: AnnotatedText
    #: Query words that no recognized mention covers (duplicates collapse).
    keywords: Set[str]
    #: Entities each mention was linked to (empty on keyword fallback).
    linked_entities: List[ScoredCandidate]
    hits: List[SearchHit]
    used_fallback: bool

    @property
    def degraded(self) -> bool:
        """True when at least one mention was linked under degraded
        (no-interest fallback) scoring — personalization was reduced."""
        return self.annotation.degraded


#: Half-life of a result's freshness, the recency decay of result ranking.
FRESHNESS_HALF_LIFE = 7 * DAY
#: Weight of keyword overlap against freshness in a result's rank score
#: (both in [0, 1]).
KEYWORD_WEIGHT = 0.5


class PersonalizedSearchEngine:
    """Entity-aware, socially-personalized tweet search."""

    def __init__(self, linker: SocialTemporalLinker, store: TweetStore) -> None:
        self._linker = linker
        self._store = store
        self._pipeline = TextLinkingPipeline(linker)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def search(
        self, text: str, user: int, now: float, limit: int = 10
    ) -> SearchResponse:
        """Run one personalized query issued by ``user`` at time ``now``."""
        if limit < 1:
            raise ValueError(f"search limit must be at least 1, got {limit}")
        annotation = self._pipeline.annotate(text, user, now)
        bound = self._linker.config.no_interest_bound
        linked: List[ScoredCandidate] = []
        covered: Set[int] = set()
        for span in annotation.spans:
            linked.extend(span.result.top_k(1, threshold=bound))
            covered.update(range(span.mention.token_start, span.mention.token_end))
        keywords = {
            word for index, word in enumerate(tokenize_words(text))
            if index not in covered
        }
        if linked:
            hits = self._entity_hits(keywords, linked, now, limit)
        else:
            hits = self._keyword_fallback(keywords, now, limit)
        return SearchResponse(
            annotation=annotation,
            keywords=keywords,
            linked_entities=linked,
            hits=hits,
            used_fallback=not linked,
        )

    # ------------------------------------------------------------------ #
    # ranking
    # ------------------------------------------------------------------ #
    def _rank_score(
        self, tweet_id: int, timestamp: float, now: float, keywords: Set[str]
    ) -> float:
        age = max(now - timestamp, 0.0)
        freshness = math.exp(-math.log(2) * age / FRESHNESS_HALF_LIFE)
        overlap = self._store.keyword_overlap(tweet_id, keywords)
        return KEYWORD_WEIGHT * overlap + (1 - KEYWORD_WEIGHT) * freshness

    def _entity_hits(
        self, keywords: Set[str], linked, now: float, limit: int
    ) -> List[SearchHit]:
        seen = set()
        scored: List[SearchHit] = []
        for candidate in linked:
            _, times, tweet_ids = self._linker.ckb.link_columns(candidate.entity_id)
            for timestamp, tweet_id in zip(times, tweet_ids):
                if timestamp > now or tweet_id in seen:
                    continue  # never surface the future during replays
                tweet = self._store.get(tweet_id)
                if tweet is None:
                    continue
                seen.add(tweet_id)
                scored.append(
                    SearchHit(
                        tweet=tweet,
                        score=self._rank_score(tweet_id, timestamp, now, keywords),
                        entity_id=candidate.entity_id,
                    )
                )
        scored.sort(key=lambda hit: (-hit.score, -hit.tweet.timestamp))
        return scored[:limit]

    def _keyword_fallback(
        self, keywords: Set[str], now: float, limit: int
    ) -> List[SearchHit]:
        hits = [
            SearchHit(
                tweet=tweet,
                score=self._rank_score(tweet.tweet_id, tweet.timestamp, now, keywords),
                entity_id=None,
            )
            for tweet in self._store.find_by_keywords(keywords, limit * 3)
            if tweet.timestamp <= now
        ]
        hits.sort(key=lambda hit: (-hit.score, -hit.tweet.timestamp))
        return hits[:limit]
