"""Tweet records with ground-truth mention labels.

The paper evaluates against human majority-vote labels; our synthetic
stream records, for every mention it plants, the true entity — the
:class:`MentionSpan.true_entity` field.  The linking algorithms never read
it; only :mod:`repro.eval.metrics` does.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True, slots=True)
class MentionSpan:
    """One entity mention planted in (or recognized from) a tweet."""

    surface: str
    #: Ground-truth entity id; ``None`` for mentions found by NER on text
    #: where the generator planted nothing (spurious recognitions).
    true_entity: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.surface, str) or not self.surface.strip():
            raise ValueError(f"mention surface must be non-empty, got {self.surface!r}")


class MentionIntern:
    """The records one world's tweets share: one :class:`MentionSpan` per
    ``(surface, entity)``, one mention tuple per sequence of them, each
    built (and validated) on its first sighting, and one ``int`` per author.

    A span is found by its raw pair plus the entity's type, which keeps
    ``1``, ``1.0`` and ``True`` apart, so a re-save writes what was read;
    a longer tuple by its spans' positions.  No dataclass ``__hash__`` runs.
    """

    __slots__ = ("_positions", "_singles", "_tuples", "_users")

    def __init__(self) -> None:
        self._positions: Dict[tuple, int] = {}
        #: ``(span,)`` per span, in order of first sighting.
        self._singles: List[Tuple[MentionSpan]] = []
        self._tuples: Dict[Tuple[int, ...], Tuple[MentionSpan, ...]] = {}
        self._users: Dict[int, int] = {}

    @property
    def spans(self) -> List[MentionSpan]:
        """Every span, in order of first sighting."""
        return [span for (span,) in self._singles]

    def user(self, user: int) -> int:
        """The shared object of author id ``user``; a JSON parser makes a
        new ``int`` per record, and ids past 256 are not cached."""
        return self._users.setdefault(user, user)

    def mentions(self, pairs: Sequence[Sequence]) -> Tuple[MentionSpan, ...]:
        """The shared tuple of the spans of ``(surface, entity)`` ``pairs``."""
        positions = self._positions
        try:
            if len(pairs) == 1:  # three tweets in four name one span
                (surface, entity), = pairs
                return self._singles[positions[surface, entity, type(entity)]]
            key = tuple([positions[s, e, type(e)] for s, e in pairs])
        except (KeyError, TypeError):  # a new span, or an unhashable field
            key = tuple([self._position(s, e) for s, e in pairs])
            if len(key) == 1:
                return self._singles[key[0]]
        mentions = self._tuples.get(key)
        if mentions is None:
            singles = self._singles
            mentions = self._tuples[key] = tuple([singles[i][0] for i in key])
        return mentions

    def _position(self, surface, entity) -> int:
        key = (surface, entity, type(entity))
        try:
            position = self._positions.get(key)
        except TypeError:  # an unhashable field: MentionSpan judges the surface
            MentionSpan(surface=surface, true_entity=entity)
            raise TypeError(f"mention entity must be an entity id, got {entity!r}")
        if position is None:
            span = MentionSpan(surface=surface, true_entity=entity)
            position = self._positions[key] = len(self._singles)
            self._singles.append((span,))
        return position


@dataclasses.dataclass(frozen=True, slots=True)
class Tweet:
    """A microblog posting ``d`` with author ``d.u`` and timestamp ``d.t``.

    Construction validates the invariants every downstream structure
    assumes (finite timestamps, non-negative ids, tokenizable text);
    dirty records from a live stream must be repaired or rejected *before*
    they become :class:`Tweet` objects — see
    :class:`repro.stream.ingest.TweetValidator`.
    """

    tweet_id: int
    user: int
    timestamp: float
    text: str
    mentions: Tuple[MentionSpan, ...] = ()

    def __post_init__(self) -> None:
        if self.tweet_id < 0:
            raise ValueError(f"tweet_id must be non-negative, got {self.tweet_id}")
        if self.user < 0:
            raise ValueError(f"user must be non-negative, got {self.user}")
        if not isinstance(self.timestamp, (int, float)) or not math.isfinite(
            self.timestamp
        ):
            raise ValueError(f"timestamp must be finite, got {self.timestamp!r}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError("tweet text must be non-empty")

    @property
    def num_mentions(self) -> int:
        return len(self.mentions)

    def labeled_mentions(self) -> List[MentionSpan]:
        """Mentions that carry a ground-truth label."""
        return [m for m in self.mentions if m.true_entity is not None]
