"""Epoch-keyed memoization for the scoring hot path (DESIGN.md §10).

**Epochs** are monotone version counters owned by the mutable structures
(:class:`~repro.kb.knowledgebase.Knowledgebase` and
:class:`~repro.kb.complemented.ComplementedKnowledgebase`; the follow
graph is immutable); every mutator bumps its owner,
so memoized candidate/popularity/interest results invalidate
structurally.  Recency is not cached — it is one row-dot per candidate
over a precomputed operator (:mod:`repro.core.recency`).

Disabled by default (``LinkerConfig.score_caching``); when enabled the
output is bit-identical to the uncached path.
"""

from __future__ import annotations

from repro.cache.epochs import Epoch
from repro.cache.scores import EpochKeyedCache, ScoreCaches

__all__ = [
    "Epoch",
    "EpochKeyedCache",
    "ScoreCaches",
]
