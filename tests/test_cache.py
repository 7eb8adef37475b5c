"""Unit tests for :mod:`repro.cache`: epochs, the epoch-keyed memo table
and the three-table bundle the linker wires in.

The bit-identity *property* suite lives in ``test_cache_properties.py``;
this file pins the mechanisms one at a time so a regression points at
the broken part, not just at "outputs diverged".
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache import Epoch, EpochKeyedCache, ScoreCaches
from repro.config import DAY
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
# ScoreCaches
# ---------------------------------------------------------------------- #
class TestScoreCaches:
    @pytest.fixture
    def caches(self, tiny_ckb):
        return ScoreCaches(tiny_ckb), tiny_ckb

    def test_epoch_tuples_track_their_owners(self, caches):
        bundle, ckb = caches
        before = (
            bundle.candidate_epochs(),
            bundle.popularity_epochs(),
            bundle.interest_epochs(),
        )
        ckb.kb.add_surface_form("his airness", 0)
        ckb.link_tweet(0, user=10, timestamp=9 * DAY)
        after = (
            bundle.candidate_epochs(),
            bundle.popularity_epochs(),
            bundle.interest_epochs(),
        )
        assert all(a != b for a, b in zip(before, after))

    def test_kb_mutation_leaves_link_epochs_alone(self, caches):
        bundle, ckb = caches
        popularity = bundle.popularity_epochs()
        interest = bundle.interest_epochs()
        ckb.kb.add_surface_form("goat", 0)
        assert bundle.popularity_epochs() == popularity
        assert bundle.interest_epochs() == interest

    def test_clear_is_safe(self, caches):
        bundle, _ = caches
        bundle.candidates.put("jordan", bundle.candidate_epochs(), (0, 1, 2))
        bundle.clear()
        assert bundle.candidates.get("jordan", bundle.candidate_epochs()) is None
