"""Segment-based fuzzy index over knowledgebase surface forms.

Queries and tweets are full of misspellings; candidate generation
(Sec. 3.2.2, following Li et al. ICDE'14) therefore matches mentions against
KB entries by edit-distance similarity.  The index uses the PassJoin-style
*partition scheme*: a string within edit distance ``k`` of an indexed entry
must contain at least one of the entry's ``k + 1`` segments verbatim
(pigeonhole over at most ``k`` edits).  Lookup enumerates query substrings
aligned with each segment slot, fetches the inverted lists, and verifies
survivors with a banded edit-distance check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.text.edit_distance import within_edit_distance


def _slot_layout(length: int, pieces: int) -> List[Tuple[int, int]]:
    """``(start, size)`` of each of the ``pieces`` contiguous segments a
    string of ``length`` splits into, shorter first.

    Both sides read this one partition, so the query side reconstructs
    every slot's position and length exactly as the index cut it.
    """
    base, longer = divmod(length, pieces)  # the last `longer` get base+1 chars
    layout: List[Tuple[int, int]] = []
    position = 0
    for slot in range(pieces):
        size = base + (1 if slot >= pieces - longer else 0)
        layout.append((position, size))
        position += size
    return layout


def _segments(text: str, pieces: int) -> List[Tuple[int, str]]:
    """``(start, segment)`` pairs of ``text`` split per :func:`_slot_layout`."""
    return [
        (start, text[start : start + size])
        for start, size in _slot_layout(len(text), pieces)
    ]


class SegmentIndex:
    """Inverted segment index supporting edit-distance-``k`` lookups."""

    def __init__(self, surfaces: Iterable[str], max_edits: int = 1) -> None:
        if max_edits < 0:
            raise ValueError("max_edits must be non-negative")
        self._k = max_edits
        self._surfaces: List[str] = []
        self._seen: Set[str] = set()
        # (entry_length, slot, segment_text) -> surface ids
        self._inverted: Dict[Tuple[int, int, str], List[int]] = {}
        # strings too short to be partitioned into k+1 non-empty segments
        self._short: List[int] = []
        for surface in surfaces:
            self.add(surface)

    @property
    def max_edits(self) -> int:
        return self._k

    def __len__(self) -> int:
        return len(self._surfaces)

    def num_index_entries(self) -> int:
        """Total inverted-list entries (index-size comparisons)."""
        return sum(len(bucket) for bucket in self._inverted.values()) + len(
            self._short
        )

    def add(self, surface: str) -> None:
        """Index a new surface form (idempotent)."""
        normalized = surface.lower().strip()
        if not normalized or normalized in self._seen:
            return
        self._seen.add(normalized)
        surface_id = len(self._surfaces)
        self._surfaces.append(normalized)
        pieces = self._k + 1
        if len(normalized) < pieces:
            self._short.append(surface_id)
            return
        for slot, (position, segment) in enumerate(_segments(normalized, pieces)):
            key = (len(normalized), slot, segment)
            self._inverted.setdefault(key, []).append(surface_id)

    def lookup(self, query: str) -> List[str]:
        """All indexed surfaces within edit distance ``k`` of ``query``.

        Exact matches are included; results are sorted by (distance-free)
        insertion order to keep candidate generation deterministic.
        """
        normalized = query.lower().strip()
        if not normalized:
            return []
        k = self._k
        query_length = len(normalized)
        candidate_ids: Set[int] = set()
        pieces = k + 1
        for entry_length in range(max(pieces, query_length - k), query_length + k + 1):
            for slot, (start, size) in enumerate(_slot_layout(entry_length, pieces)):
                # The segment can shift by at most k positions inside query.
                low = max(0, start - k)
                high = min(query_length - size, start + k)
                for offset in range(low, high + 1):
                    key = (entry_length, slot, normalized[offset : offset + size])
                    bucket = self._inverted.get(key)
                    if bucket:
                        candidate_ids.update(bucket)
        matches = [
            self._surfaces[surface_id]
            for surface_id in sorted(candidate_ids)
            if within_edit_distance(normalized, self._surfaces[surface_id], k)
        ]
        for surface_id in self._short:
            surface = self._surfaces[surface_id]
            if within_edit_distance(normalized, surface, k):
                matches.append(surface)
        return matches

