"""Candidate generation (Sec. 3.2.2).

Given a mention surface, produce the candidate entity set :math:`E_m`:

1. exact lookup against the KB surface-form map (titles, redirects,
   nicknames, disambiguation entries);
2. when the exact lookup misses — tweets are full of misspellings — fall
   back to the segment-based fuzzy index and union the candidates of every
   surface within edit distance ``k``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import FUZZY_EDIT_DISTANCE
from repro.kb.knowledgebase import Knowledgebase
from repro.kb.surface_index import SegmentIndex


class CandidateGenerator:
    """Exact-then-fuzzy candidate generation over a knowledgebase."""

    def __init__(self, kb: Knowledgebase, max_edits: int = FUZZY_EDIT_DISTANCE) -> None:
        self._kb = kb
        self._index = SegmentIndex(kb.mentions(), max_edits=max_edits)

    @property
    def max_edits(self) -> int:
        return self._index.max_edits

    def register_surface(self, surface: str, entity_id: int) -> None:
        """Keep the fuzzy index in sync when the KB learns a new surface."""
        self._kb.add_surface_form(surface, entity_id)
        self._index.add(surface)

    def candidates(self, surface: str) -> Tuple[int, ...]:
        """Candidate entity set :math:`E_m` for a mention surface.

        Exact matches win outright (an exactly-known surface is never
        fuzzy-expanded — expanding would pollute :math:`E_m` and the
        popularity normalization).  Results are deduplicated, order-stable.
        """
        exact = self._kb.candidates(surface)
        if exact:
            return exact
        seen: List[int] = []
        for matched_surface in self._index.lookup(surface):
            for entity_id in self._kb.candidates(matched_surface):
                if entity_id not in seen:
                    seen.append(entity_id)
        return tuple(seen)
