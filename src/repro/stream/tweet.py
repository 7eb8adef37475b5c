"""Tweet records with ground-truth mention labels.

The paper evaluates against human majority-vote labels; our synthetic
stream records, for every mention it plants, the true entity — the
:class:`MentionSpan.true_entity` field.  The linking algorithms never read
it; only :mod:`repro.eval.metrics` does.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class MentionSpan:
    """One entity mention planted in (or recognized from) a tweet."""

    surface: str
    #: Ground-truth entity id; ``None`` for mentions found by NER on text
    #: where the generator planted nothing (spurious recognitions).
    true_entity: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.surface, str) or not self.surface.strip():
            raise ValueError(f"mention surface must be non-empty, got {self.surface!r}")


@dataclasses.dataclass(frozen=True)
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
