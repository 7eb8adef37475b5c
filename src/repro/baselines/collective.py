"""Collective baseline — Shen et al. KDD'13-style batch linking [2].

Assumes each user has an underlying interest distribution over entities:
all mentions from all of a user's tweets are disambiguated *jointly*.
Candidates across the user's tweets form a graph whose edges carry WLM
relatedness; initial scores come from the intra-tweet features; a
PageRank-like iteration propagates interest between related candidates;
each mention finally takes its highest-scoring candidate.

The same component complements the knowledgebase offline (Sec. 3.2.1):
running it over the active-user datasets yields the (imperfect) tweet →
entity links that populate :math:`D_e` and the communities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.common import IntraTweetScorer, other_candidates
from repro.core.candidates import CandidateGenerator
from repro.kb.complemented import ComplementedKnowledgebase
from repro.stream.tweet import Tweet


class CollectiveLinker:
    """Per-user batch linker with interest propagation."""

    def __init__(
        self,
        ckb: ComplementedKnowledgebase,
        scorer: Optional[IntraTweetScorer] = None,
        candidate_generator: Optional[CandidateGenerator] = None,
        damping: float = 0.5,
        iterations: int = 10,
    ) -> None:
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be in [0, 1]")
        self._ckb = ckb
        self._scorer = scorer or IntraTweetScorer(ckb)
        self._candidates = candidate_generator or CandidateGenerator(ckb.kb)
        self._damping = damping
        self._iterations = iterations

    # ------------------------------------------------------------------ #
    # batch linking
    # ------------------------------------------------------------------ #
    def link_user(
        self, tweets: Sequence[Tweet]
    ) -> Dict[int, List[Optional[int]]]:
        """Jointly link every mention in a user's tweets.

        Returns ``{tweet_id: [prediction per mention]}``.  The interest
        graph spans all candidates of all the user's mentions; entities
        recurring across tweets accumulate propagated interest, which is
        the inter-tweet signal the method contributes.
        """
        mention_slots: List[Tuple[int, int, Tuple[int, ...]]] = []
        per_tweet_sets: Dict[int, List[Tuple[int, ...]]] = {}
        for tweet in tweets:
            sets = [self._candidates.candidates(m.surface) for m in tweet.mentions]
            per_tweet_sets[tweet.tweet_id] = sets
            for index, candidates in enumerate(sets):
                mention_slots.append((tweet.tweet_id, index, candidates))

        initial = self._initial_scores(tweets, per_tweet_sets)
        propagated = self._propagate(initial)

        predictions: Dict[int, List[Optional[int]]] = {
            tweet.tweet_id: [None] * len(tweet.mentions) for tweet in tweets
        }
        for tweet_id, index, candidates in mention_slots:
            if not candidates:
                continue
            predictions[tweet_id][index] = min(
                candidates, key=lambda e: (-propagated.get(e, 0.0), e)
            )
        return predictions

    def link_tweet(self, tweet: Tweet) -> List[Optional[int]]:
        """Single-tweet convenience wrapper (a batch of one)."""
        return self.link_user([tweet])[tweet.tweet_id]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _initial_scores(
        self,
        tweets: Sequence[Tweet],
        per_tweet_sets: Dict[int, List[Tuple[int, ...]]],
    ) -> Dict[int, float]:
        """Best intra-tweet score each candidate achieves anywhere."""
        initial: Dict[int, float] = {}
        for tweet in tweets:
            sets = per_tweet_sets[tweet.tweet_id]
            for index, candidates in enumerate(sets):
                if not candidates:
                    continue
                scores = self._scorer.score(
                    candidates, tweet.text, other_candidates(sets, index)
                )
                for entity_id, score in scores.items():
                    # every candidate joins the interest graph, even with a
                    # zero intra-tweet score — it can still receive interest
                    # propagated from the user's other mentions
                    if entity_id not in initial or score > initial[entity_id]:
                        initial[entity_id] = score
        return initial

    def _propagate(self, initial: Dict[int, float]) -> Dict[int, float]:
        """PageRank-like interest propagation over the WLM graph."""
        entities = sorted(initial)
        if len(entities) <= 1:
            return dict(initial)
        # Row-normalized relatedness transition matrix (sparse dict form).
        transitions: Dict[int, List[Tuple[int, float]]] = {}
        for i, a in enumerate(entities):
            weights = []
            for b in entities:
                if a == b:
                    continue
                weight = self._scorer.relatedness(a, b)
                if weight > 0.0:
                    weights.append((b, weight))
            total = sum(w for _, w in weights)
            if total > 0.0:
                transitions[a] = [(b, w / total) for b, w in weights]
        scores = dict(initial)
        for _ in range(self._iterations):
            fresh: Dict[int, float] = {}
            for entity_id in entities:
                incoming = sum(
                    weight * scores[b]
                    for b, weight in transitions.get(entity_id, ())
                )
                fresh[entity_id] = (
                    self._damping * initial[entity_id]
                    + (1.0 - self._damping) * incoming
                )
            if all(abs(fresh[e] - scores[e]) < 1e-9 for e in entities):
                scores = fresh
                break
            scores = fresh
        return scores

    # ------------------------------------------------------------------ #
    # offline KB complementation (Sec. 3.2.1)
    # ------------------------------------------------------------------ #
    def complement_kb(self, tweets: Sequence[Tweet]) -> int:
        """Run batch linking per author and store the links in the KB.

        Returns the number of links recorded.  This is the offline
        knowledge-acquisition step; its mistakes propagate into the
        complemented KB exactly as in the paper (Fig. 4(b) discussion).
        """
        by_user: Dict[int, List[Tweet]] = {}
        for tweet in tweets:
            by_user.setdefault(tweet.user, []).append(tweet)
        linked = 0
        for user_tweets in by_user.values():
            predictions = self.link_user(user_tweets)
            for tweet in user_tweets:
                for entity_id in predictions[tweet.tweet_id]:
                    if entity_id is not None:
                        self._ckb.link_tweet(
                            entity_id, tweet.user, tweet.timestamp, tweet.tweet_id
                        )
                        linked += 1
        return linked
