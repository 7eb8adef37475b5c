"""Burst event timeline tests."""

import random

import pytest

from repro.config import DAY
from repro.stream.events import Event, EventTimeline


class TestEvent:
    def test_active_window_half_open(self):
        event = Event(topic=0, start=DAY, end=2 * DAY)
        assert not event.active_at(0.5 * DAY)
        assert event.active_at(DAY)
        assert event.active_at(1.5 * DAY)
        assert not event.active_at(2 * DAY)

    def test_duration(self):
        assert Event(topic=0, start=0.0, end=3 * DAY).duration == 3 * DAY


class TestTimeline:
    def test_events_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            EventTimeline([Event(topic=0, start=0.0, end=10 * DAY)], horizon=5 * DAY)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            EventTimeline([], horizon=0.0)

    def test_topic_boost_neutral_without_events(self):
        timeline = EventTimeline([], horizon=10 * DAY)
        assert timeline.topic_boost(0, 5 * DAY) == 1.0

    def test_topic_boost_during_event(self):
        timeline = EventTimeline(
            [Event(topic=1, start=0.0, end=DAY, intensity=5.0)], horizon=10 * DAY
        )
        assert timeline.topic_boost(1, 0.5 * DAY) == 5.0
        assert timeline.topic_boost(0, 0.5 * DAY) == 1.0  # other topic unaffected
        assert timeline.topic_boost(1, 2 * DAY) == 1.0  # after the event

    def test_overlapping_events_multiply(self):
        timeline = EventTimeline(
            [
                Event(topic=0, start=0.0, end=2 * DAY, intensity=2.0),
                Event(topic=0, start=DAY, end=3 * DAY, intensity=3.0),
            ],
            horizon=5 * DAY,
        )
        assert timeline.topic_boost(0, 1.5 * DAY) == 6.0

    def test_events_sorted_by_start(self):
        events = [
            Event(topic=0, start=2 * DAY, end=3 * DAY),
            Event(topic=1, start=0.0, end=DAY),
        ]
        timeline = EventTimeline(events, horizon=5 * DAY)
        assert [e.topic for e in timeline.events] == [1, 0]


class TestRandomTimeline:
    def test_counts_and_bounds(self):
        timeline = EventTimeline.random(
            num_topics=4, horizon=30 * DAY, events_per_topic=2, rng=random.Random(1)
        )
        assert len(timeline.events) == 8
        for event in timeline.events:
            assert 0 <= event.start < event.end <= 30 * DAY

    def test_deterministic(self):
        a = EventTimeline.random(3, 10 * DAY, rng=random.Random(5))
        b = EventTimeline.random(3, 10 * DAY, rng=random.Random(5))
        assert [(e.topic, e.start, e.end) for e in a.events] == [
            (e.topic, e.start, e.end) for e in b.events
        ]
