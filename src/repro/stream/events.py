"""Temporal burst events driving entity recency.

The paper's motivating example: *Michael Jordan (basketball)* spikes during
NBA seasons, *Michael Jordan (machine learning expert)* while ICML is on.
An :class:`EventTimeline` holds per-topic burst intervals; while a topic's
event is active, users tweet disproportionately about that topic's entities,
which is precisely the signal the sliding-window recency feature (Eq. 9) and
its propagation model are designed to pick up.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence

#: Mean of the exponential burst duration of :meth:`EventTimeline.random`
#: (seconds; five days).
MEAN_EVENT_DURATION = 5 * 86_400.0


@dataclasses.dataclass(frozen=True)
class Event:
    """A burst of attention on one topic during ``[start, end)``."""

    topic: int
    start: float
    end: float
    #: Multiplier applied to the topic's tweet probability while active.
    intensity: float = 5.0

    def active_at(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


class EventTimeline:
    """An ordered collection of burst events over a simulation horizon."""

    def __init__(self, events: Sequence[Event], horizon: float) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        for event in events:
            if not 0 <= event.start < event.end <= horizon:
                raise ValueError(f"event {event} outside horizon [0, {horizon})")
        self._events = sorted(events, key=lambda e: e.start)
        self._horizon = horizon

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def topic_boost(self, topic: int, timestamp: float) -> float:
        """Combined intensity multiplier for ``topic`` at ``timestamp``.

        1.0 when no event is active; intensities multiply when events of the
        same topic overlap (rare but allowed).
        """
        boost = 1.0
        for event in self._events:
            if event.topic == topic and event.active_at(timestamp):
                boost *= event.intensity
        return boost

    @classmethod
    def random(
        cls,
        num_topics: int,
        horizon: float,
        events_per_topic: int = 2,
        intensity: float = 6.0,
        rng: Optional[random.Random] = None,
    ) -> "EventTimeline":
        """Sample a timeline with ``events_per_topic`` bursts per topic."""
        rng = rng or random.Random(0)
        events: List[Event] = []
        for topic in range(num_topics):
            for _ in range(events_per_topic):
                duration = min(horizon, rng.expovariate(1.0 / MEAN_EVENT_DURATION))
                duration = max(duration, horizon / 100.0)
                start = rng.uniform(0.0, max(horizon - duration, 0.0))
                events.append(
                    Event(
                        topic=topic,
                        start=start,
                        end=min(start + duration, horizon),
                        intensity=intensity,
                    )
                )
        return cls(events, horizon)
