"""Synthetic tweet stream generator tests."""

import copy
import dataclasses
import hashlib
import pickle

import pytest

from repro.config import DAY
from repro.io import load_world, save_world, world_to_dict
from repro.kb.builder import KBProfile
from repro.stream.generator import StreamProfile, SyntheticWorld, follow_graph
from repro.stream.tweet import MentionSpan, Tweet

from conftest import small_profiles


class TestMentionInterning:
    def test_equal_spans_are_one_object(self, small_world):
        """As in a loaded world: one ``MentionSpan`` per (surface, entity)."""
        first = {}
        for tweet in small_world.tweets:
            for span in tweet.mentions:
                key = (span.surface, span.true_entity)
                assert first.setdefault(key, span) is span
        assert len(first) < sum(t.num_mentions for t in small_world.tweets)

    def test_save_load_round_trip_is_unchanged(self, small_world, tmp_path):
        path = tmp_path / "world.json"
        save_world(small_world, path)
        assert world_to_dict(load_world(path)) == world_to_dict(small_world)

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_equal_mention_tuples_are_one_object(self, small_world, tmp_path, source):
        world = small_world
        if source == "loaded":
            path = tmp_path / "world.json"
            save_world(small_world, path)
            world = load_world(path)
        first = {}
        for tweet in world.tweets:
            key = tuple((m.surface, m.true_entity) for m in tweet.mentions)
            assert first.setdefault(key, tweet.mentions) is tweet.mentions
        assert len(first) < len(world.tweets)


class TestTweetRecords:
    """``Tweet`` and ``MentionSpan`` are slotted: no per-instance dict, and
    they still compare, hash, copy and pickle as values."""

    def tweet(self):
        spans = (MentionSpan("jordan", 3), MentionSpan("bulls"))
        return Tweet(
            tweet_id=7, user=2, timestamp=86400.5, text="jordan bulls", mentions=spans
        )

    def test_no_instance_dict(self):
        tweet = self.tweet()
        for record in (tweet, tweet.mentions[0]):
            assert not hasattr(record, "__dict__")

    def test_equal_and_hash_equal(self):
        a, b = self.tweet(), self.tweet()
        assert a == b and hash(a) == hash(b)
        assert a.mentions[0] == MentionSpan("jordan", 3)
        assert hash(a.mentions[1]) == hash(MentionSpan("bulls", None))
        assert a != dataclasses.replace(a, user=3)

    def test_pickle_and_copy_round_trip(self):
        tweet = self.tweet()
        for clone in (pickle.loads(pickle.dumps(tweet)), copy.deepcopy(tweet)):
            assert clone == tweet and hash(clone) == hash(tweet)
            assert clone.mentions[0].true_entity == 3

    def test_replace_keeps_fields_and_validates(self):
        tweet = self.tweet()
        assert dataclasses.replace(tweet) == tweet
        moved = dataclasses.replace(tweet, timestamp=90000.0)
        assert (moved.tweet_id, moved.mentions) == (tweet.tweet_id, tweet.mentions)
        with pytest.raises(ValueError, match="timestamp must be non-negative"):
            dataclasses.replace(tweet, timestamp=-1.0)
        with pytest.raises(ValueError, match="mention surface"):
            dataclasses.replace(tweet.mentions[0], surface=" ")

    def test_frozen(self):
        tweet = self.tweet()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tweet.user = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            tweet.mentions[0].surface = "x"


class TestWorldGeneration:
    def test_chronological_order(self, small_world):
        timestamps = [t.timestamp for t in small_world.tweets]
        assert timestamps == sorted(timestamps)

    def test_sequential_tweet_ids(self, small_world):
        assert [t.tweet_id for t in small_world.tweets] == list(
            range(len(small_world.tweets))
        )

    def test_every_mention_labeled(self, small_world):
        for tweet in small_world.tweets:
            assert tweet.mentions
            for mention in tweet.mentions:
                assert mention.true_entity is not None

    def test_surface_in_text(self, small_world):
        for tweet in small_world.tweets[:200]:
            for mention in tweet.mentions:
                assert mention.surface in tweet.text

    def test_timestamps_within_horizon(self, small_world):
        horizon = small_world.stream_profile.horizon
        for tweet in small_world.tweets:
            assert 0.0 <= tweet.timestamp <= horizon

    def test_true_entity_among_surface_candidates_unless_typo(self, small_world):
        kb = small_world.kb
        resolvable = 0
        total = 0
        for tweet in small_world.tweets:
            for mention in tweet.mentions:
                total += 1
                if mention.true_entity in kb.candidates(mention.surface):
                    resolvable += 1
        # only typos (5%) break exact resolvability
        assert resolvable / total > 0.9

    def test_hubs_tweet_heavily_and_on_topic(self, small_world):
        profile = small_world.stream_profile
        for topic, topic_hubs in enumerate(small_world.hubs):
            for rank, hub in enumerate(topic_hubs):
                tweets = [t for t in small_world.tweets if t.user == hub]
                expected = int(profile.hub_tweets * profile.hub_tweets_decay**rank)
                assert len(tweets) == expected
                on_topic = sum(
                    1
                    for t in tweets
                    for m in t.mentions
                    if small_world.synthetic_kb.topic_of(m.true_entity) == topic
                )
                total = sum(len(t.mentions) for t in tweets)
                # bursts on other topics occasionally pull even hubs
                # off-topic; dominance is what matters
                assert on_topic / total > 0.6

    def test_determinism(self):
        kb_profile, stream_profile = small_profiles(seed=21)
        first = SyntheticWorld.generate(kb_profile, stream_profile)
        second = SyntheticWorld.generate(kb_profile, stream_profile)
        assert [(t.user, t.timestamp, t.text) for t in first.tweets] == [
            (t.user, t.timestamp, t.text) for t in second.tweets
        ]
        assert sorted(first.graph.edges()) == sorted(second.graph.edges())

    @pytest.mark.parametrize(
        "num_users, seed, edges, digest",
        [(200, 200, 1570, "a7e58b615208a1ad"), (800, 1, 7127, "c133664d8c9fe685")],
    )
    def test_follow_graph_draws_are_pinned(self, num_users, seed, edges, digest):
        """Table 5's D90' graph and the reachability example's: the user
        draws from ``Random(seed)`` and the edge draws from
        ``Random(seed + 1)`` the benches made before ``follow_graph``."""
        graph = follow_graph(num_users, seed=seed)
        assert graph.num_nodes == num_users
        assert graph.num_edges == edges
        ordered = repr(sorted(graph.edges())).encode()
        assert hashlib.sha256(ordered).hexdigest()[:16] == digest


class TestInterestsDriveContent:
    def test_users_tweet_their_interest_topics(self, small_world):
        synthetic_kb = small_world.synthetic_kb
        import numpy as np

        hub_users = {h for row in small_world.hubs for h in row}
        matched = 0
        total = 0
        for tweet in small_world.tweets:
            if tweet.user in hub_users:
                continue
            row = small_world.interests[tweet.user]
            preferred = set(np.argsort(row)[-2:])
            for mention in tweet.mentions:
                total += 1
                if synthetic_kb.topic_of(mention.true_entity) in preferred:
                    matched += 1
        # events occasionally pull users off their preferred topics
        assert matched / total > 0.6


class TestEventsShapeStream:
    def test_burst_raises_topic_share(self, small_world):
        synthetic_kb = small_world.synthetic_kb
        timeline = small_world.timeline
        event = max(timeline.events, key=lambda e: e.duration)
        inside = [0, 0]
        outside = [0, 0]
        for tweet in small_world.tweets:
            bucket = inside if event.active_at(tweet.timestamp) else outside
            for mention in tweet.mentions:
                bucket[0] += 1
                if synthetic_kb.topic_of(mention.true_entity) == event.topic:
                    bucket[1] += 1
        share_inside = inside[1] / inside[0]
        share_outside = outside[1] / max(outside[0], 1)
        assert share_inside > share_outside


class TestProfileValidation:
    def test_bad_user_count(self):
        with pytest.raises(ValueError):
            StreamProfile(num_users=1)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            StreamProfile(horizon=-DAY)

    def test_bad_rates(self):
        with pytest.raises(ValueError):
            StreamProfile(ambiguous_mention_rate=1.5)
        with pytest.raises(ValueError):
            StreamProfile(typo_rate=-0.1)

    def test_too_many_hubs_rejected(self):
        kb_profile = KBProfile(num_topics=8)
        profile = StreamProfile(num_users=10)
        with pytest.raises(ValueError, match="hubs"):
            SyntheticWorld.generate(kb_profile, profile)


class TestTypoModel:
    def test_substitute_preserves_length(self):
        import random as _random

        from repro.stream.generator import TweetStreamGenerator

        rng = _random.Random(1)
        for _ in range(50):
            out = TweetStreamGenerator._typo("michael jordan", rng)
            assert len(out) == len("michael jordan")
            assert " " in out  # spaces untouched

    def test_all_kinds_stay_close(self):
        import random as _random

        from repro.stream.generator import TweetStreamGenerator
        from repro.text.edit_distance import edit_distance

        rng = _random.Random(2)
        for _ in range(100):
            out = TweetStreamGenerator._typo("michael jordan", rng, kinds="all")
            assert edit_distance(out, "michael jordan") <= 2

    def test_unknown_kinds_rejected(self):
        import random as _random

        import pytest as _pytest

        from repro.stream.generator import TweetStreamGenerator

        with _pytest.raises(ValueError):
            TweetStreamGenerator._typo("abcdef", _random.Random(0), kinds="swap")

    def test_default_worlds_unchanged_by_typo_feature(self):
        """The calibrated default stream must be bit-stable."""
        from repro.stream.generator import StreamProfile, SyntheticWorld

        world = SyntheticWorld.generate(
            stream_profile=StreamProfile(seed=11, num_users=60, hub_tweets=20)
        )
        # fingerprint a few tweets; guards against accidental RNG drift
        fingerprint = [(t.user, t.text) for t in world.tweets[:3]]
        again = SyntheticWorld.generate(
            stream_profile=StreamProfile(seed=11, num_users=60, hub_tweets=20)
        )
        assert fingerprint == [(t.user, t.text) for t in again.tweets[:3]]
