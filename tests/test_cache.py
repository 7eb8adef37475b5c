"""Unit tests for :mod:`repro.cache`: epochs, the epoch-keyed memo table,
the incremental burst tracker, and the vector-keyed recency evaluator.

The bit-identity *property* suite lives in ``test_cache_properties.py``;
this file pins the mechanisms one at a time so a regression points at
the broken part, not just at "outputs diverged".
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache import BurstTracker, Epoch, EpochKeyedCache, IncrementalRecency
from repro.cache.scores import ScoreCaches, hit_rate_names
from repro.config import DAY, LinkerConfig
from repro.core.recency import (
    RecencyPropagationNetwork,
    propagated_recency,
    sliding_window_recency,
)
from repro.graph.digraph import DiGraph
from repro.obs.metrics import METRICS


@pytest.fixture(autouse=True)
def clean_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


# ---------------------------------------------------------------------- #
# Epoch
# ---------------------------------------------------------------------- #
class TestEpoch:
    def test_starts_at_zero_and_bumps_monotonically(self):
        epoch = Epoch()
        assert epoch.value == 0
        assert epoch.bump() == 1
        assert epoch.bump() == 2
        assert epoch.value == 2

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Epoch(-1)

    def test_pickle_round_trip(self):
        """Workers inherit epochs by fork or pickle; both must agree."""
        epoch = Epoch(7)
        clone = pickle.loads(pickle.dumps(epoch))
        assert clone.value == 7
        clone.bump()
        assert clone.value == 8
        assert epoch.value == 7  # independent after the round trip


# ---------------------------------------------------------------------- #
# EpochKeyedCache
# ---------------------------------------------------------------------- #
class TestEpochKeyedCache:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            EpochKeyedCache("score_cache.test", 0)

    def test_hit_requires_matching_epochs(self):
        cache = EpochKeyedCache("score_cache.test", 8)
        cache.put("jordan", (1, 4), (0, 1, 2))
        assert cache.get("jordan", (1, 4)) == (0, 1, 2)
        assert cache.get("jordan", (2, 4)) is None  # epoch moved -> miss
        assert METRICS.counter("score_cache.test.hit") == 1
        assert METRICS.counter("score_cache.test.miss") == 1

    def test_stale_entry_overwritten_by_next_put(self):
        cache = EpochKeyedCache("score_cache.test", 8)
        cache.put("k", (1,), "old")
        cache.put("k", (2,), "new")
        assert len(cache) == 1
        assert cache.get("k", (2,)) == "new"

    def test_lru_eviction_at_capacity(self):
        cache = EpochKeyedCache("score_cache.test", 2)
        cache.put("a", (0,), 1)
        cache.put("b", (0,), 2)
        assert cache.get("a", (0,)) == 1  # refresh "a" -> "b" is now LRU
        cache.put("c", (0,), 3)
        assert len(cache) == 2
        assert cache.get("b", (0,)) is None
        assert cache.get("a", (0,)) == 1
        assert cache.get("c", (0,)) == 3
        assert METRICS.counter("score_cache.test.evictions") == 1

    def test_lookup_computes_exactly_once_per_epoch(self):
        cache = EpochKeyedCache("score_cache.test", 8)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.lookup("k", (3,), compute) == "value"
        assert cache.lookup("k", (3,), compute) == "value"
        assert len(calls) == 1
        assert cache.lookup("k", (4,), compute) == "value"
        assert len(calls) == 2

    def test_clear_empties_without_breaking(self):
        cache = EpochKeyedCache("score_cache.test", 8)
        cache.put("k", (1,), "v")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k", (1,)) is None


# ---------------------------------------------------------------------- #
# BurstTracker
# ---------------------------------------------------------------------- #
class TestBurstTracker:
    def test_validates_parameters(self, tiny_ckb):
        with pytest.raises(ValueError):
            BurstTracker(tiny_ckb, window=0.0, burst_threshold=1)
        with pytest.raises(ValueError):
            BurstTracker(tiny_ckb, window=DAY, burst_threshold=-1)

    def test_counts_match_recent_count_oracle(self, tiny_ckb):
        """Window boundary parity: admit ts <= now, expire ts < now - w."""
        tracker = BurstTracker(tiny_ckb, window=3 * DAY, burst_threshold=2)
        entities = tiny_ckb.linked_entities()
        for now in (0.0, 1.5 * DAY, 3 * DAY, 3.0000001 * DAY, 8 * DAY, 40 * DAY):
            tracker.advance(now)
            for entity_id in entities:
                assert tracker.count(entity_id) == tiny_ckb.recent_count(
                    entity_id, now, 3 * DAY
                ), (entity_id, now)

    def test_incremental_links_match_oracle(self, tiny_ckb):
        tracker = BurstTracker(tiny_ckb, window=2 * DAY, burst_threshold=1)
        tracker.advance(5 * DAY)
        tiny_ckb.link_tweet(3, user=10, timestamp=4.5 * DAY)  # in window
        tiny_ckb.link_tweet(3, user=10, timestamp=9 * DAY)  # future: admit heap
        tiny_ckb.link_tweet(3, user=10, timestamp=1 * DAY)  # behind window
        assert tracker.count(3) == tiny_ckb.recent_count(3, 5 * DAY, 2 * DAY) == 1
        tracker.advance(9 * DAY)
        assert tracker.count(3) == tiny_ckb.recent_count(3, 9 * DAY, 2 * DAY) == 1

    def test_event_skipping_whole_window_between_advances(self, tiny_ckb):
        """A future event that entered *and* left the window while the
        clock stood still must not be double-counted or leak."""
        tracker = BurstTracker(tiny_ckb, window=1 * DAY, burst_threshold=1)
        tracker.advance(0.0)
        tiny_ckb.link_tweet(3, user=10, timestamp=2 * DAY)
        tracker.advance(40 * DAY)
        assert tracker.count(3) == tiny_ckb.recent_count(3, 40 * DAY, 1 * DAY) == 0

    def test_time_regression_triggers_rebuild(self, tiny_ckb):
        tracker = BurstTracker(tiny_ckb, window=3 * DAY, burst_threshold=1)
        tracker.advance(8 * DAY)
        assert tracker.advance(2 * DAY) is True  # replay restarted
        assert tracker.count(0) == tiny_ckb.recent_count(0, 2 * DAY, 3 * DAY)
        assert tracker.rebuilds == 2  # initial lazy build + the regression

    def test_prune_forces_rebuild(self, tiny_ckb):
        tracker = BurstTracker(tiny_ckb, window=30 * DAY, burst_threshold=1)
        tracker.advance(8 * DAY)
        tiny_ckb.prune_before(2 * DAY)
        assert tracker.needs_rebuild
        assert tracker.advance(8 * DAY) is True
        for entity_id in tiny_ckb.linked_entities():
            assert tracker.count(entity_id) == tiny_ckb.recent_count(
                entity_id, 8 * DAY, 30 * DAY
            )

    def test_dirty_tracks_gated_changes_only(self, tiny_ckb):
        tracker = BurstTracker(tiny_ckb, window=30 * DAY, burst_threshold=3)
        tracker.advance(8 * DAY)
        tracker.consume_dirty()
        # entity 3 has no links: one new link keeps it below θ1=3 -> clean
        tiny_ckb.link_tweet(3, user=10, timestamp=8 * DAY)
        assert tracker.consume_dirty() == set()
        # entity 0 is far above θ1: any count move changes the gated value
        tiny_ckb.link_tweet(0, user=10, timestamp=8 * DAY)
        assert tracker.consume_dirty() == {0}
        # consume is destructive
        assert tracker.consume_dirty() == set()


# ---------------------------------------------------------------------- #
# IncrementalRecency
# ---------------------------------------------------------------------- #
def _network(tiny_ckb):
    return RecencyPropagationNetwork(
        tiny_ckb.kb, relatedness_threshold=0.2, propagation_lambda=0.6
    )


class TestIncrementalRecency:
    def test_rejects_non_positive_capacity(self, tiny_ckb):
        with pytest.raises(ValueError):
            IncrementalRecency(tiny_ckb, None, DAY, 1, capacity=0)

    def test_sliding_matches_oracle(self, tiny_ckb):
        cached = IncrementalRecency(
            tiny_ckb, None, window=3 * DAY, burst_threshold=2
        )
        for now in (0.0, 2 * DAY, 8 * DAY, 5 * DAY):  # includes a regression
            expected = sliding_window_recency(
                tiny_ckb, [0, 1, 2], now, 3 * DAY, 2
            )
            assert cached.scores([0, 1, 2], now) == expected

    def test_propagated_matches_oracle(self, tiny_ckb):
        network = _network(tiny_ckb)
        cached = IncrementalRecency(
            tiny_ckb, network, window=3 * DAY, burst_threshold=2
        )
        for now in (0.0, 2 * DAY, 8 * DAY):
            expected = propagated_recency(
                tiny_ckb, network, [0, 1, 2], now, 3 * DAY, 2
            )
            assert cached.scores([0, 1, 2], now) == expected

    def test_vector_key_hits_on_unchanged_input(self, tiny_ckb):
        network = _network(tiny_ckb)
        cached = IncrementalRecency(
            tiny_ckb, network, window=3 * DAY, burst_threshold=2
        )
        cached.scores([0, 1, 2], 8 * DAY)
        misses = METRICS.counter("score_cache.recency.miss")
        cached.scores([0, 1, 2], 8 * DAY)
        assert METRICS.counter("score_cache.recency.miss") == misses
        assert METRICS.counter("score_cache.recency.hit") > 0

    def test_vector_key_survives_rebuild(self, tiny_ckb):
        """A replay that regresses time rebuilds the tracker but the
        fixed-point memo — keyed on values, not versions — still hits."""
        network = _network(tiny_ckb)
        cached = IncrementalRecency(
            tiny_ckb, network, window=3 * DAY, burst_threshold=2
        )
        cached.scores([0, 1, 2], 8 * DAY)
        cached.scores([0, 1, 2], 2 * DAY)  # regression -> rebuild
        misses = METRICS.counter("score_cache.recency.miss")
        result = cached.scores([0, 1, 2], 8 * DAY)  # same vector as pass 1
        assert METRICS.counter("score_cache.recency.miss") == misses
        assert result == propagated_recency(
            tiny_ckb, network, [0, 1, 2], 8 * DAY, 3 * DAY, 2
        )

    def test_memo_eviction_at_capacity(self, tiny_ckb):
        network = _network(tiny_ckb)
        cached = IncrementalRecency(
            tiny_ckb, network, window=DAY, burst_threshold=1, capacity=1
        )
        # different nows -> different gated vectors -> distinct memo keys
        cached.scores([0, 1], 1 * DAY)
        cached.scores([0, 1], 3 * DAY)
        cached.scores([0, 1], 5 * DAY)
        assert METRICS.counter("score_cache.recency.evictions") > 0

    def test_pre_advance_ignores_regressions(self, tiny_ckb):
        cached = IncrementalRecency(
            tiny_ckb, None, window=3 * DAY, burst_threshold=2
        )
        cached.scores([0], 8 * DAY)
        rebuilds = cached.tracker.rebuilds
        cached.pre_advance(2 * DAY)  # backwards: must be a no-op
        assert cached.tracker.now == 8 * DAY
        assert cached.tracker.rebuilds == rebuilds
        cached.pre_advance(9 * DAY)
        assert cached.tracker.now == 9 * DAY


# ---------------------------------------------------------------------- #
# ScoreCaches
# ---------------------------------------------------------------------- #
class TestScoreCaches:
    @pytest.fixture
    def caches(self, tiny_ckb):
        graph = DiGraph.from_edges(13, [(10, 11), (11, 12)])
        config = LinkerConfig(score_caching=True)
        return (
            ScoreCaches(tiny_ckb, graph, network=None, config=config),
            tiny_ckb,
            graph,
        )

    def test_epoch_tuples_track_their_owners(self, caches):
        bundle, ckb, graph = caches
        before = (
            bundle.candidate_epochs(),
            bundle.popularity_epochs(),
            bundle.interest_epochs(),
        )
        ckb.kb.add_surface_form("his airness", 0)
        ckb.link_tweet(0, user=10, timestamp=9 * DAY)
        graph.add_edge(12, 10)
        after = (
            bundle.candidate_epochs(),
            bundle.popularity_epochs(),
            bundle.interest_epochs(),
        )
        assert all(a != b for a, b in zip(before, after))

    def test_kb_mutation_leaves_link_epochs_alone(self, caches):
        bundle, ckb, _ = caches
        popularity = bundle.popularity_epochs()
        interest = bundle.interest_epochs()
        ckb.kb.add_surface_form("goat", 0)
        assert bundle.popularity_epochs() == popularity
        assert bundle.interest_epochs() == interest

    def test_clear_is_safe(self, caches):
        bundle, _, _ = caches
        bundle.candidates.put("jordan", bundle.candidate_epochs(), (0, 1, 2))
        bundle.clear()
        assert bundle.candidates.get("jordan", bundle.candidate_epochs()) is None

    def test_hit_rate_names_cover_all_four_caches(self):
        assert hit_rate_names() == {
            "score_cache.candidates",
            "score_cache.popularity",
            "score_cache.interest",
            "score_cache.recency",
        }
