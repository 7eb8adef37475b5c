"""Human-readable explanations of linking decisions.

A linking system people trust must answer *why*: which followed accounts
drove the interest score, which burst drove recency, how far popularity
mattered.  :func:`explain_link` reconstructs the per-feature evidence for
one :class:`~repro.core.linker.LinkResult` and renders it as text.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.linker import LinkResult, SocialTemporalLinker


@dataclasses.dataclass(frozen=True)
class InterestEvidence:
    """One influential community member and the author's reachability."""

    user: int
    reachability: float

    def describe(self) -> str:
        if self.reachability >= 1.0:
            return f"directly follows user {self.user}"
        if self.reachability > 0.0:
            return f"reaches user {self.user} (R={self.reachability:.3f})"
        return f"no path to user {self.user}"


@dataclasses.dataclass(frozen=True)
class CandidateExplanation:
    """Per-candidate evidence backing the combined score."""

    entity_id: int
    title: str
    score: float
    interest_share: float
    recency_share: float
    popularity_share: float
    interest_evidence: List[InterestEvidence]
    recent_tweets: int
    total_tweets: int

    def lines(self) -> List[str]:
        parts = [
            f"{self.title}: score {self.score:.3f} "
            f"(interest {self.interest_share:.2f}, recency {self.recency_share:.2f}, "
            f"popularity {self.popularity_share:.2f})"
        ]
        for evidence in self.interest_evidence:
            parts.append(f"  - {evidence.describe()}")
        parts.append(
            f"  - {self.recent_tweets} recent tweets in the window, "
            f"{self.total_tweets} linked overall"
        )
        return parts


@dataclasses.dataclass(frozen=True)
class LinkExplanation:
    """Explanation of a full ranking."""

    surface: str
    user: int
    candidates: List[CandidateExplanation]

    @property
    def winner(self) -> Optional[CandidateExplanation]:
        return self.candidates[0] if self.candidates else None

    def render(self) -> str:
        if not self.candidates:
            return f"{self.surface!r}: no candidates in the knowledgebase"
        lines = [f"{self.surface!r} for user {self.user}:"]
        for candidate in self.candidates:
            lines.extend(candidate.lines())
        return "\n".join(lines)


def explain_link(
    linker: SocialTemporalLinker,
    result: LinkResult,
    top_candidates: int = 3,
) -> LinkExplanation:
    """Reconstruct the evidence behind a :class:`LinkResult`.

    Reads the :math:`U^*_e` rankings ``link()`` itself reads (same
    candidate set, same cache) and the linker's own configuration, so the
    explanation matches the decision; the reachability provider is
    queried per influential user to show the concrete social paths.
    """
    ckb = linker.ckb
    config = linker.config
    provider = linker.reachability_provider
    influential = linker.influential_users(
        linker.candidate_generator.candidates(result.surface)
    )
    explanations: List[CandidateExplanation] = []
    for scored in result.ranked[:top_candidates]:
        evidence = [
            InterestEvidence(
                user=v, reachability=provider.reachability(result.user, v)
            )
            for v in influential[scored.entity_id]
        ]
        explanations.append(
            CandidateExplanation(
                entity_id=scored.entity_id,
                title=ckb.kb.entity(scored.entity_id).title,
                score=scored.score,
                interest_share=scored.interest,
                recency_share=scored.recency,
                popularity_share=scored.popularity,
                interest_evidence=evidence,
                recent_tweets=ckb.recent_count(
                    scored.entity_id, result.timestamp, config.window
                ),
                total_tweets=ckb.count(scored.entity_id),
            )
        )
    return LinkExplanation(
        surface=result.surface, user=result.user, candidates=explanations
    )
