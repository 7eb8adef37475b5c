"""On-the-fly baseline — TAGME-style entity linking [14].

Links tweet by tweet using intra-tweet features only: popularity prior,
context similarity against the entity description, and topical-coherence
voting between the tweet's own mentions.  The fastest of the three methods
(Fig. 5(a)) but the least accurate on short, single-mention tweets
(Fig. 4(a), Fig. 6(c)).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.common import IntraTweetScorer, other_candidates
from repro.core.candidates import CandidateGenerator
from repro.kb.complemented import ComplementedKnowledgebase
from repro.stream.tweet import Tweet


class OnTheFlyLinker:
    """Intra-tweet linker; stateless across tweets."""

    def __init__(
        self,
        ckb: ComplementedKnowledgebase,
        scorer: Optional[IntraTweetScorer] = None,
        candidate_generator: Optional[CandidateGenerator] = None,
    ) -> None:
        self._ckb = ckb
        self._scorer = scorer or IntraTweetScorer(ckb)
        self._candidates = candidate_generator or CandidateGenerator(ckb.kb)

    def link_tweet(self, tweet: Tweet) -> List[Optional[int]]:
        """Predicted entity per mention (``None`` when :math:`E_m` is empty)."""
        candidate_sets: List[Tuple[int, ...]] = [
            self._candidates.candidates(m.surface) for m in tweet.mentions
        ]
        predictions: List[Optional[int]] = []
        for index, candidates in enumerate(candidate_sets):
            if not candidates:
                predictions.append(None)
                continue
            scores = self._scorer.score(
                candidates, tweet.text, other_candidates(candidate_sets, index)
            )
            predictions.append(
                min(scores, key=lambda e: (-scores[e], e))
            )
        return predictions
