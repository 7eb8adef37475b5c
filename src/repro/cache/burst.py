"""Incremental sliding-window burst counts (Eq. 9, maintained as deltas).

The uncached recency path answers ``recent_count(e, now, window)`` with
two bisections over the entity's full timestamp list — correct, but every
linked mention rescans state that barely changed since the previous
mention.  :class:`BurstTracker` maintains the same counts incrementally:

* the tracker subscribes to the complemented KB's link feed, so every
  ``link_tweet`` lands in an *admission heap* (events still in the
  future of the tracker clock) or directly in the in-window counts;
* :meth:`advance` moves the tracker clock forward, admitting events with
  ``timestamp <= now`` and expiring events with
  ``timestamp < now - window`` — exactly the half-open boundaries of
  :meth:`~repro.kb.complemented.ComplementedKnowledgebase.recent_count`
  (both ends inclusive), so counts match the oracle bit-for-bit;
* entities whose *burst-gated* value changed (crossed ``θ1`` or moved
  while above it) are collected in a dirty set, which the propagation
  cache uses to invalidate only the affected clusters.

Time regressions (a replay restarting, a pruned KB) fall back to a full
rebuild from the KB's sorted timestamp lists — counted in
``score_cache.recency.rebuilds`` so a thrashing workload is visible.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kb.complemented import ComplementedKnowledgebase


class BurstTracker:
    """Per-entity sliding-window counts maintained as arrival/expiry deltas."""

    def __init__(
        self,
        ckb: "ComplementedKnowledgebase",
        window: float,
        burst_threshold: int,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if burst_threshold < 0:
            raise ValueError("burst_threshold must be non-negative")
        self._ckb = ckb
        self._window = window
        self._threshold = burst_threshold
        self._counts: Dict[int, int] = {}
        # events with timestamp > clock, waiting to enter the window
        self._admit: List[Tuple[float, int]] = []
        # in-window events, ordered by timestamp for expiry
        self._expire: List[Tuple[float, int]] = []
        self._now = -math.inf
        self._dirty: Set[int] = set()
        self._needs_rebuild = True
        self.rebuilds = 0
        ckb.add_link_listener(self)

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """The tracker clock — the ``now`` of the last :meth:`advance`."""
        return self._now

    @property
    def needs_rebuild(self) -> bool:
        return self._needs_rebuild

    def count(self, entity_id: int) -> int:
        """In-window link count at the tracker clock (== ``recent_count``)."""
        return self._counts.get(entity_id, 0)

    def gated(self, entity_id: int) -> float:
        """Burst-gated raw recency: the count if ≥ ``θ1``, else 0."""
        count = self._counts.get(entity_id, 0)
        return float(count) if count >= self._threshold else 0.0

    def consume_dirty(self) -> Set[int]:
        """Entities whose gated value changed since the last consume."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    # ------------------------------------------------------------------ #
    # ckb listener protocol
    # ------------------------------------------------------------------ #
    def on_link(self, entity_id: int, timestamp: float) -> None:
        """One new link landed in the complemented KB."""
        if self._needs_rebuild:
            return  # the pending rebuild will pick it up from the KB
        if timestamp > self._now:
            heapq.heappush(self._admit, (timestamp, entity_id))
        elif timestamp >= self._now - self._window:
            before = self._counts.get(entity_id, 0)
            self._counts[entity_id] = before + 1
            heapq.heappush(self._expire, (timestamp, entity_id))
            self._mark_dirty(entity_id, before, before + 1)
        # else: already behind every window the clock can still reach

    def on_prune(self, cutoff: float) -> None:
        """Links were removed wholesale; deltas cannot express that."""
        self._needs_rebuild = True

    # ------------------------------------------------------------------ #
    # clock movement
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> bool:
        """Move the tracker clock to ``now``.

        Returns ``True`` when the state was rebuilt from scratch (time
        regression or a pending prune) — the caller must then drop every
        derived cache entry, not just the dirty ones.
        """
        if self._needs_rebuild or now < self._now:
            self._rebuild(now)
            return True
        if now == self._now:
            return False
        low = now - self._window
        touched: Dict[int, int] = {}
        while self._admit and self._admit[0][0] <= now:
            timestamp, entity_id = heapq.heappop(self._admit)
            if timestamp < low:
                continue  # entered and left the window between advances
            touched.setdefault(entity_id, self._counts.get(entity_id, 0))
            self._counts[entity_id] = self._counts.get(entity_id, 0) + 1
            heapq.heappush(self._expire, (timestamp, entity_id))
        while self._expire and self._expire[0][0] < low:
            _, entity_id = heapq.heappop(self._expire)
            touched.setdefault(entity_id, self._counts.get(entity_id, 0))
            remaining = self._counts.get(entity_id, 0) - 1
            if remaining:
                self._counts[entity_id] = remaining
            else:
                self._counts.pop(entity_id, None)
        for entity_id, before in touched.items():
            self._mark_dirty(entity_id, before, self._counts.get(entity_id, 0))
        self._now = now
        return False

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _mark_dirty(self, entity_id: int, before: int, after: int) -> None:
        gate_before = before if before >= self._threshold else 0
        gate_after = after if after >= self._threshold else 0
        if gate_before != gate_after:
            self._dirty.add(entity_id)

    def _rebuild(self, now: float) -> None:
        self.rebuilds += 1
        METRICS.incr("score_cache.recency.rebuilds")
        self._counts.clear()
        self._admit = []
        self._expire = []
        self._dirty.clear()
        low = now - self._window
        for entity_id in self._ckb.linked_entities():
            for timestamp in self._ckb.timestamps_of(entity_id):
                if timestamp > now:
                    heapq.heappush(self._admit, (timestamp, entity_id))
                elif timestamp >= low:
                    self._counts[entity_id] = self._counts.get(entity_id, 0) + 1
                    heapq.heappush(self._expire, (timestamp, entity_id))
        self._now = now
        self._needs_rebuild = False
