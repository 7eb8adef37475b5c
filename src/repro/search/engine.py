"""The personalized microblog search engine (Sec. 3.2.2).

Pipeline per query:

1. parse the query into entity mentions + residual keywords;
2. link each mention with the querying user's social-temporal context
   (:class:`~repro.core.linker.SocialTemporalLinker`), keeping the top-k
   entities whose score clears the Appendix-D no-interest bound;
3. collect the tweets linked to those entities in the complemented
   knowledgebase and rank them by a freshness-decayed keyword-relevance
   score;
4. queries without any linkable mention fall back to plain keyword search
   over the tweet store.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.config import DAY
from repro.core.linker import SocialTemporalLinker
from repro.core.scoring import ScoredCandidate
from repro.search.query import ParsedQuery, QueryParser
from repro.search.store import TweetStore
from repro.stream.tweet import Tweet


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

    query: ParsedQuery
    #: Entities each mention was linked to (empty on keyword fallback).
    linked_entities: List[ScoredCandidate]
    hits: List[SearchHit]
    used_fallback: bool
    #: True when at least one mention was linked under degraded
    #: (no-interest fallback) scoring — personalization was reduced.
    degraded: bool = False


#: Half-life of a result's freshness, the recency decay of result ranking.
FRESHNESS_HALF_LIFE = 7 * DAY
#: Weight of keyword overlap against freshness in a result's rank score
#: (both in [0, 1]).
KEYWORD_WEIGHT = 0.5


class PersonalizedSearchEngine:
    """Entity-aware, socially-personalized tweet search."""

    def __init__(
        self,
        linker: SocialTemporalLinker,
        store: TweetStore,
        parser: Optional[QueryParser] = None,
    ) -> None:
        self._linker = linker
        self._store = store
        self._parser = parser or QueryParser(linker.ckb.kb)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def search(
        self, text: str, user: int, now: float, limit: int = 10
    ) -> SearchResponse:
        """Run one personalized query issued by ``user`` at time ``now``."""
        parsed = self._parser.parse(text)
        linked: List[ScoredCandidate] = []
        degraded = False
        config = self._linker.config
        for surface in parsed.mentions:
            result = self._linker.link(surface, user=user, now=now)
            degraded = degraded or result.degraded
            linked.extend(result.top_k(1, threshold=config.no_interest_bound))
        if not linked:
            hits = self._keyword_fallback(parsed, now, limit)
            return SearchResponse(
                query=parsed,
                linked_entities=[],
                hits=hits,
                used_fallback=True,
                degraded=degraded,
            )
        hits = self._entity_hits(parsed, linked, now, limit)
        return SearchResponse(
            query=parsed,
            linked_entities=linked,
            hits=hits,
            used_fallback=False,
            degraded=degraded,
        )

    # ------------------------------------------------------------------ #
    # ranking
    # ------------------------------------------------------------------ #
    def _rank_score(self, tweet_id: int, timestamp: float, now: float, parsed) -> float:
        age = max(now - timestamp, 0.0)
        freshness = math.exp(-math.log(2) * age / FRESHNESS_HALF_LIFE)
        overlap = self._store.keyword_overlap(tweet_id, parsed.keywords)
        return KEYWORD_WEIGHT * overlap + (1 - KEYWORD_WEIGHT) * freshness

    def _entity_hits(
        self, parsed: ParsedQuery, linked, now: float, limit: int
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
                        score=self._rank_score(tweet_id, timestamp, now, parsed),
                        entity_id=candidate.entity_id,
                    )
                )
        scored.sort(key=lambda hit: (-hit.score, -hit.tweet.timestamp))
        return scored[:limit]

    def _keyword_fallback(
        self, parsed: ParsedQuery, now: float, limit: int
    ) -> List[SearchHit]:
        hits = [
            SearchHit(
                tweet=tweet,
                score=self._rank_score(tweet.tweet_id, tweet.timestamp, now, parsed),
                entity_id=None,
            )
            for tweet in self._store.find_by_keywords(parsed.keywords, limit * 3)
            if tweet.timestamp <= now
        ]
        hits.sort(key=lambda hit: (-hit.score, -hit.tweet.timestamp))
        return hits[:limit]
