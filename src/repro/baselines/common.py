"""Intra-tweet features shared by both baselines (Sec. 5.1.3).

Both [14] and [2] score a candidate entity with the classic trio:

* **popularity prior** — the candidate's share of linked tweets within the
  candidate set (same quantity our Eq. 2 uses);
* **context similarity** — tf-idf cosine between the tweet's words and the
  entity's description page;
* **topical coherence** — WLM-weighted voting by the candidates of the
  *other* mentions in the same tweet (TAGME-style), each vote weighted by
  the voter's prior.

Tweets are short, so context vectors are thin and single-mention tweets get
zero coherence — exactly the weakness (Sec. 1.1) that motivates the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.kb.complemented import ComplementedKnowledgebase
from repro.text.similarity import CosineSimilarity, TfIdfVectorizer
from repro.text.tokenize import tokenize_words

#: Weights of the popularity prior, context similarity and coherence in
#: :meth:`IntraTweetScorer.score`.
WEIGHT_POPULARITY = 0.4
WEIGHT_CONTEXT = 0.3
WEIGHT_COHERENCE = 0.3


class IntraTweetScorer:
    """Popularity prior + context similarity + coherence voting."""

    def __init__(self, ckb: ComplementedKnowledgebase) -> None:
        self._ckb = ckb
        vectorizer = TfIdfVectorizer()
        kb = ckb.kb
        descriptions = [kb.description(e.entity_id) for e in kb.entities()]
        vectorizer.fit(descriptions)
        self._context = CosineSimilarity(vectorizer)
        for entity in kb.entities():
            self._context.add_document(entity.entity_id, kb.description(entity.entity_id))
        self._relatedness_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------ #
    # feature pieces
    # ------------------------------------------------------------------ #
    def popularity_prior(self, candidates: Sequence[int]) -> Dict[int, float]:
        """Candidate share of linked tweets (the commonness prior).

        With no linked tweets at all the prior is uninformative and falls
        back to uniform — candidates stay alive for the other features and
        for coherence voting.
        """
        counts = {e: self._ckb.count(e) for e in candidates}
        total = sum(counts.values())
        if total == 0:
            uniform = 1.0 / len(candidates) if candidates else 0.0
            return {e: uniform for e in candidates}
        return {e: c / total for e, c in counts.items()}

    def context_similarity(
        self, candidates: Sequence[int], tweet_text: str
    ) -> Dict[int, float]:
        """tf-idf cosine between tweet words and each entity description."""
        words = tokenize_words(tweet_text)
        return {e: self._context.score(e, words) for e in candidates}

    def relatedness(self, entity_a: int, entity_b: int) -> float:
        """Cached WLM relatedness between two entities."""
        key = (entity_a, entity_b) if entity_a <= entity_b else (entity_b, entity_a)
        cached = self._relatedness_cache.get(key)
        if cached is None:
            cached = self._ckb.kb.relatedness(*key)
            self._relatedness_cache[key] = cached
        return cached

    def coherence(
        self,
        candidates: Sequence[int],
        other_mention_candidates: Sequence[Sequence[int]],
    ) -> Dict[int, float]:
        """TAGME-style voting by the other mentions' candidates.

        Each other mention votes for candidate ``e`` with the prior-weighted
        average relatedness of its own candidates to ``e``; a tweet with a
        single mention yields zero coherence for every candidate.
        """
        scores = {e: 0.0 for e in candidates}
        voters = [c for c in other_mention_candidates if c]
        if not voters:
            return scores
        for entity_id in candidates:
            vote_total = 0.0
            for voter_candidates in voters:
                prior = self.popularity_prior(voter_candidates)
                vote = sum(
                    prior[v] * self.relatedness(entity_id, v)
                    for v in voter_candidates
                    if v != entity_id
                )
                vote_total += vote
            scores[entity_id] = vote_total / len(voters)
        return scores

    # ------------------------------------------------------------------ #
    # combined
    # ------------------------------------------------------------------ #
    def score(
        self,
        candidates: Sequence[int],
        tweet_text: str,
        other_mention_candidates: Sequence[Sequence[int]],
    ) -> Dict[int, float]:
        """Weighted sum of the three intra-tweet features per candidate."""
        prior = self.popularity_prior(candidates)
        context = self.context_similarity(candidates, tweet_text)
        coherence = self.coherence(candidates, other_mention_candidates)
        return {
            e: (
                WEIGHT_POPULARITY * prior[e]
                + WEIGHT_CONTEXT * context[e]
                + WEIGHT_COHERENCE * coherence[e]
            )
            for e in candidates
        }


def other_candidates(
    all_candidates: List[Tuple[int, ...]], index: int
) -> List[Tuple[int, ...]]:
    """Candidate sets of every mention except ``index`` (coherence voters)."""
    return [c for i, c in enumerate(all_candidates) if i != index]
