"""Interactive linking session — Appendix D of the paper.

Handles the two vocabulary-drift hazards around knowledgebase updates:

* **false positives before the KB update** — a mention whose intended
  meaning is missing from the KB must not be force-linked to an existing
  entity.  Every candidate the user has no interest in scores at most
  ``β + γ``, so that bound is the abstention threshold;
* **true negatives after the KB update** (warm-up) — a freshly added
  meaning has no linked tweets yet; user confirmations feed
  :meth:`~repro.core.linker.SocialTemporalLinker.confirm_link` until the
  community and recency signals carry it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

from repro.core.linker import LinkResult, SocialTemporalLinker
from repro.core.scoring import ScoredCandidate
from repro.kb.entity import EntityCategory


class FeedbackOutcome(enum.Enum):
    """What an interactive linking round concluded."""

    LINKED = "linked"
    #: No candidate above the no-interest bound — likely a new meaning.
    NEEDS_NEW_MEANING = "needs-new-meaning"
    #: The surface is entirely unknown to the KB.
    UNKNOWN_SURFACE = "unknown-surface"


@dataclasses.dataclass
class FeedbackRound:
    """One interactive round: proposals shown, outcome, confirmed entity."""

    result: LinkResult
    outcome: FeedbackOutcome
    proposals: List[ScoredCandidate]
    confirmed_entity: Optional[int] = None


class InteractiveLinkingSession:
    """Drives link → propose → confirm → update cycles over a linker."""

    def __init__(self, linker: SocialTemporalLinker) -> None:
        self._linker = linker
        self._rounds: List[FeedbackRound] = []

    @property
    def rounds(self) -> List[FeedbackRound]:
        return list(self._rounds)

    def propose(self, surface: str, user: int, now: float) -> FeedbackRound:
        """Link a mention and classify the outcome (no KB change yet)."""
        result = self._linker.link(surface, user, now)
        config = self._linker.config
        if not result.ranked:
            round_ = FeedbackRound(
                result=result, outcome=FeedbackOutcome.UNKNOWN_SURFACE, proposals=[]
            )
        else:
            # A degraded result never measured interest, so the Appendix-D
            # bound (which presumes it was measured as absent) does not
            # apply: propose its recency + popularity ranking, as search does.
            threshold = None if result.degraded else config.no_interest_bound
            proposals = result.top_k(config.top_k, threshold=threshold)
            outcome = (
                FeedbackOutcome.LINKED if proposals else FeedbackOutcome.NEEDS_NEW_MEANING
            )
            round_ = FeedbackRound(result=result, outcome=outcome, proposals=proposals)
        self._rounds.append(round_)
        return round_

    def confirm(
        self, round_: FeedbackRound, entity_id: int, tweet_id: int = -1
    ) -> None:
        """User confirms a proposal; the complemented KB learns the link."""
        self._linker.confirm_link(
            entity_id, round_.result.user, round_.result.timestamp, tweet_id
        )
        round_.confirmed_entity = entity_id

    def add_new_meaning(
        self,
        round_: FeedbackRound,
        title: str,
        category: EntityCategory = EntityCategory.PERSON,
    ) -> int:
        """User declares a new entity meaning for the mention's surface.

        Creates the entity page, registers the mention surface (also in the
        fuzzy index), and links the triggering tweet — the warm-up step that
        prevents true negatives after the KB update.
        """
        kb = self._linker.ckb.kb
        entity = kb.add_entity(title=title, category=category)
        self._linker.candidate_generator.register_surface(
            round_.result.surface, entity.entity_id
        )
        self.confirm(round_, entity.entity_id)
        return entity.entity_id
