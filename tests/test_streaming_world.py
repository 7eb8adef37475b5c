"""Streaming world-generator tests: determinism and bounded memory.

The contract of :mod:`repro.graph.generators`' streaming API is that a
profile's output is a pure function of ``(seed, user id)``: the same
profile yields byte-identical edge and tweet streams whether consumed
eagerly, chunk-at-a-time, or at any chunk size — and emitting a 100k-user
world allocates O(chunk), never O(world) (the tracemalloc pin below).
"""

import tracemalloc

import pytest

from repro.graph.generators import (
    StreamingChunk,
    StreamingWorldProfile,
    stream_follow_edges,
    stream_tweet_events,
    stream_user_chunks,
    streaming_world_graph,
)


def small_profile(**overrides) -> StreamingWorldProfile:
    base = dict(num_users=1_200, num_factions=16, seed=7)
    base.update(overrides)
    return StreamingWorldProfile(**base)


class TestDeterminism:
    @pytest.mark.parametrize("chunk_size", [1, 37, 500, 5_000])
    def test_chunked_equals_eager(self, chunk_size):
        """Concatenated chunks == the eager streams, byte for byte."""
        profile = small_profile()
        eager_edges = list(stream_follow_edges(profile))
        eager_tweets = list(stream_tweet_events(profile))
        chunked_edges = []
        chunked_tweets = []
        for chunk in stream_user_chunks(profile, chunk_size=chunk_size):
            assert isinstance(chunk, StreamingChunk)
            assert chunk.stop - chunk.start <= chunk_size
            chunked_edges.extend(chunk.edges)
            chunked_tweets.extend(chunk.tweets)
        assert chunked_edges == eager_edges
        assert chunked_tweets == eager_tweets

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
            StreamingWorldProfile(num_users=10, num_factions=8, faction_hubs=2)

    def test_rejects_bad_chunk_size(self):
        profile = small_profile()
        with pytest.raises(ValueError):
            next(stream_user_chunks(profile, chunk_size=0))

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


class TestBoundedMemory:
    def test_100k_tier_streams_in_bounded_memory(self):
        """Peak allocation while streaming 100k users stays O(chunk).

        An eager materialization of this world is ~500k edges and ~200k
        tweet events — tens of MiB of tuples.  The chunked stream must
        hold only one chunk of users at a time; 16 MiB of headroom is an
        order of magnitude below eager and far above one 2 000-user
        chunk.
        """
        profile = StreamingWorldProfile(
            num_users=100_000, num_factions=800, seed=11
        )
        edges = 0
        tweets = 0
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for chunk in stream_user_chunks(profile, chunk_size=2_000):
                edges += len(chunk.edges)
                tweets += len(chunk.tweets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert edges > 400_000
        assert tweets > 100_000
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
