"""Streaming world-generator tests: determinism and bounded memory.

The contract of :mod:`repro.graph.generators`' streaming API is that a
profile's output is a pure function of the profile: the same profile
yields byte-identical edge and tweet streams on every pass — and emitting
a 100k-user world draws one user at a time, so it allocates O(user),
never O(world) (the tracemalloc pin below).
"""

import dataclasses
import tracemalloc

import pytest

from repro.graph import generators
from repro.graph.generators import (
    ENTITIES_PER_FACTION,
    GLOBAL_HUBS,
    STREAMING_HORIZON,
    StreamingWorldProfile,
    stream_follow_edges,
    stream_tweet_events,
    streaming_world_graph,
)


def small_profile(**overrides) -> StreamingWorldProfile:
    base = dict(num_users=1_200, num_factions=16, seed=7)
    base.update(overrides)
    return StreamingWorldProfile(**base)


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = small_profile()
        b = small_profile()
        assert list(stream_follow_edges(a)) == list(stream_follow_edges(b))
        assert list(stream_tweet_events(a)) == list(stream_tweet_events(b))

    def test_different_seed_different_world(self):
        a = list(stream_follow_edges(small_profile(seed=7)))
        b = list(stream_follow_edges(small_profile(seed=8)))
        assert a != b

    def test_restreaming_is_stable(self):
        """Generators are restartable: a second pass replays the first."""
        profile = small_profile()
        assert list(stream_follow_edges(profile)) == list(
            stream_follow_edges(profile)
        )

    def test_graph_materialization_matches_stream(self):
        profile = small_profile()
        graph = streaming_world_graph(profile)
        edges = set(stream_follow_edges(profile))
        assert graph.num_nodes == profile.num_users
        # duplicates are collapsed by the graph; the stream never emits any
        assert graph.num_edges == len(edges)
        for u, v in list(edges)[:200]:
            assert graph.has_edge(u, v)

    def test_no_self_loops_or_duplicates_emitted(self):
        profile = small_profile()
        seen = set()
        for u, v in stream_follow_edges(profile):
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))


class TestProfileValidation:
    def test_rejects_more_hubs_than_users(self):
        with pytest.raises(ValueError):
            StreamingWorldProfile(num_users=10, num_factions=8)

    def test_rejects_no_factions(self):
        with pytest.raises(ValueError):
            StreamingWorldProfile(num_users=100, num_factions=0)

    def test_fields_are_pinned(self):
        """Size and seed are the whole option set; the generator's shape
        is module constants (a new field must be set by some caller)."""
        assert [f.name for f in dataclasses.fields(StreamingWorldProfile)] == [
            "num_users",
            "num_factions",
            "seed",
        ]

    def test_global_hubs_belong_to_no_faction(self):
        profile = small_profile()
        for user in range(GLOBAL_HUBS):
            with pytest.raises(ValueError):
                profile.faction_of(user)
        assert profile.faction_of(GLOBAL_HUBS) == 0

    def test_positional_id_layout(self):
        profile = small_profile()
        # every regular id belongs to exactly one faction, round-robin
        for user in range(profile.num_hubs, profile.num_hubs + 64):
            faction = profile.faction_of(user)
            assert 0 <= faction < profile.num_factions

    def test_faction_member_roundtrip(self):
        profile = small_profile()
        for faction in range(profile.num_factions):
            size = profile.faction_size(faction)
            assert size > 0
            for index in (0, size - 1):
                member = profile.faction_member(faction, index)
                assert profile.faction_of(member) == faction


class TestTweetEvents:
    def test_events_stay_in_horizon_and_faction_slate(self):
        """Every regular user mentions only its own faction's entities,
        inside the stream horizon."""
        profile = small_profile()
        for timestamp, user, entity in stream_tweet_events(profile):
            assert 0.0 <= timestamp < STREAMING_HORIZON
            if user >= GLOBAL_HUBS:
                first = profile.faction_of(user) * ENTITIES_PER_FACTION
                assert first <= entity < first + ENTITIES_PER_FACTION

    def test_lurkers_follow_at_most_two(self, monkeypatch):
        """With every regular user a lurker, none follows more than two
        accounts; the hubs are unaffected."""
        monkeypatch.setattr(generators, "LURKER_RATE", 1.0)
        profile = small_profile()
        graph = streaming_world_graph(profile)
        regular = range(profile.num_hubs, profile.num_users)
        assert max(graph.out_degree(u) for u in regular) <= 2
        assert max(graph.out_degree(u) for u in range(profile.num_hubs)) > 2


class TestBoundedMemory:
    def test_100k_tier_streams_in_bounded_memory(self):
        """Peak allocation while streaming 100k users stays O(user).

        An eager materialization of this world is ~500k edges and ~200k
        tweet events — tens of MiB of tuples.  The per-user iterators
        hold one user's draws at a time; 16 MiB of headroom is an order
        of magnitude below eager.
        """
        profile = StreamingWorldProfile(
            num_users=100_000, num_factions=800, seed=11
        )
        edges = 0
        tweets = 0
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for _ in stream_follow_edges(profile):
                edges += 1
            for _ in stream_tweet_events(profile):
                tweets += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert edges > 400_000
        assert tweets > 100_000
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
