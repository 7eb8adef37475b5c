"""Serialization round-trip tests."""

import dataclasses
import gzip
import json
import tracemalloc

import pytest

from repro.errors import WorldFileError
from repro.graph.digraph import DiGraph
from repro.io import (
    _TWEET_KEYS,
    graph_from_dict,
    graph_to_dict,
    kb_from_dict,
    kb_to_dict,
    load_world,
    save_world,
    tweet_from_dict,
    tweet_to_dict,
    world_from_dict,
    world_to_dict,
)
from repro.stream.generator import SyntheticWorld
from repro.stream.profiles import quick_profiles
from repro.stream.tweet import MentionIntern


class TestGraphRoundTrip:
    def test_edges_preserved(self, diamond_graph):
        restored = graph_from_dict(graph_to_dict(diamond_graph))
        assert restored.num_nodes == diamond_graph.num_nodes
        assert sorted(restored.edges()) == sorted(diamond_graph.edges())

    def test_empty_graph(self):
        restored = graph_from_dict(graph_to_dict(DiGraph(3)))
        assert restored.num_nodes == 3
        assert restored.num_edges == 0


class TestKbRoundTrip:
    def test_entities_surfaces_links(self, tiny_kb):
        restored = kb_from_dict(kb_to_dict(tiny_kb))
        assert restored.num_entities == tiny_kb.num_entities
        for entity in tiny_kb.entities():
            twin = restored.entity(entity.entity_id)
            assert twin.title == entity.title
            assert twin.category == entity.category
            assert restored.inlinks(entity.entity_id) == tiny_kb.inlinks(
                entity.entity_id
            )
            assert restored.description(entity.entity_id) == tiny_kb.description(
                entity.entity_id
            )
        assert set(restored.mentions()) == set(tiny_kb.mentions())
        assert restored.candidates("jordan") == tiny_kb.candidates("jordan")

    def test_relatedness_preserved(self, tiny_kb):
        restored = kb_from_dict(kb_to_dict(tiny_kb))
        assert restored.relatedness(0, 3) == pytest.approx(tiny_kb.relatedness(0, 3))


class TestWorldRoundTrip:
    def test_dict_round_trip(self, small_world):
        restored = world_from_dict(world_to_dict(small_world))
        assert restored.num_users == small_world.num_users
        assert len(restored.tweets) == len(small_world.tweets)
        assert restored.tweets[5] == small_world.tweets[5]
        assert sorted(restored.graph.edges()) == sorted(small_world.graph.edges())
        assert restored.hubs == small_world.hubs
        assert (restored.interests == small_world.interests).all()
        assert restored.synthetic_kb.ambiguous_surfaces == (
            small_world.synthetic_kb.ambiguous_surfaces
        )
        assert restored.timeline.horizon == small_world.timeline.horizon
        assert len(restored.timeline.events) == len(small_world.timeline.events)

    def test_file_round_trip_plain_and_gzip(self, small_world, tmp_path):
        for name in ("world.json", "world.json.gz"):
            path = tmp_path / name
            save_world(small_world, path)
            restored = load_world(path)
            assert len(restored.tweets) == len(small_world.tweets)

    def test_gzip_smaller(self, small_world, tmp_path):
        plain = tmp_path / "w.json"
        packed = tmp_path / "w.json.gz"
        save_world(small_world, plain)
        save_world(small_world, packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_bad_version_rejected(self, small_world):
        payload = world_to_dict(small_world)
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            world_from_dict(payload)

    def test_restored_world_runs_experiments(self, small_world):
        """A reloaded world must drive the full pipeline identically."""
        from repro.eval.context import build_experiment
        from repro.eval.metrics import mention_and_tweet_accuracy

        restored = world_from_dict(world_to_dict(small_world))
        original = build_experiment(world=small_world, complement_method="truth")
        reloaded = build_experiment(world=restored, complement_method="truth")
        run_a = original.social_temporal().run(original.test_dataset)
        run_b = reloaded.social_temporal().run(reloaded.test_dataset)
        acc_a = mention_and_tweet_accuracy(
            original.test_dataset.tweets, run_a.predictions
        )
        acc_b = mention_and_tweet_accuracy(
            reloaded.test_dataset.tweets, run_b.predictions
        )
        assert acc_a == acc_b


class TestMentionInterning:
    def test_equal_spans_load_as_one_object(self, small_world, tmp_path):
        path = tmp_path / "world.json"
        save_world(small_world, path)
        restored = load_world(path)
        first = {}
        for tweet in restored.tweets:
            for span in tweet.mentions:
                key = (span.surface, span.true_entity)
                assert first.setdefault(key, span) is span
        assert len(first) < sum(t.num_mentions for t in restored.tweets)
        assert restored.tweets == small_world.tweets

    def test_one_user_object_per_author(self, tmp_path):
        """A loaded world holds one ``int`` per author, as a generated one
        does, not one per tweet.  400 users: ids past 256 are not cached
        by the interpreter, so only the intern can share them."""
        kb_profile, stream_profile = quick_profiles()
        world = SyntheticWorld.generate(
            kb_profile,
            dataclasses.replace(stream_profile, num_users=400, activity_log_mean=1.0),
        )
        path = tmp_path / "world.json"
        save_world(world, path)
        restored = load_world(path)
        users = {t.user for t in restored.tweets}
        assert max(users) > 256
        assert len({id(t.user) for t in restored.tweets}) == len(users)
        assert restored.tweets == world.tweets

    def test_tweets_retain_at_most_260_bytes_each(self, small_world, tmp_path):
        """What a loaded tweet keeps past the rest of the world (tracemalloc):
        a slotted record, its text and numbers, and a mention tuple shared
        with every tweet naming the same spans: ≈ 218 B.  A dict-backed
        tweet with a tuple of its own keeps ≈ 322 B."""

        def retained(world):
            path = tmp_path / "world.json"
            save_world(world, path)
            load_world(path)  # anything a first call sets up is not the load's
            tracemalloc.start()
            try:
                loaded = load_world(path)
                return tracemalloc.get_traced_memory()[0], loaded
            finally:
                tracemalloc.stop()

        bare, _ = retained(dataclasses.replace(small_world, tweets=[]))
        full, world = retained(small_world)
        assert world.tweets == small_world.tweets
        assert (full - bare) / len(world.tweets) < 260

    def test_equal_entities_of_other_types_stay_apart(self, small_world):
        """``1`` and ``1.0`` are equal keys; a re-save still writes each."""
        tweets = world_to_dict(small_world)["tweets"]
        i, j = [k for k, t in enumerate(tweets) if t["mentions"]][:2]
        tweets[j]["mentions"] = [[tweets[i]["mentions"][0][0], 1.0]]
        tweets[i]["mentions"] = [[tweets[i]["mentions"][0][0], 1]]
        interned = MentionIntern()
        restored = [tweet_from_dict(t, interned) for t in tweets]
        assert type(restored[i].mentions[0].true_entity) is int
        assert type(restored[j].mentions[0].true_entity) is float

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("surface", "", "mention surface must be non-empty"),
            ("surface", ["x"], "mention surface must be non-empty"),
            ("user", -1, "user must be non-negative"),
            ("id", True, "'id' must be an int, got True"),
            ("id", 7.0, "'id' must be an int, got 7.0"),
            ("t", False, "'t' must be a real number, got False"),
            ("t", "86400", "'t' must be a real number, got '86400'"),
            # a flipped digit made entity 12 into 92: it loaded, and the
            # truth complement's bulk_link raised KeyError under `repro link`
            ("entity", 10**6, "names entity 1000000, not one of the KB's"),
            ("entity", True, "names entity True"),
            ("entity", [1], r"mention entity must be an entity id, got \[1\]"),
            # the follow graph: `true` loaded as node 1 and a repeat collapsed
            ("nodes", True, "num_nodes must be an int, got True"),
            ("nodes", 120.0, "num_nodes must be an int, got 120.0"),
            ("edge", [True, 2], r"edge \(True, 2\) ends must be ints"),
            ("edge", [0, "1"], r"edge \(0, '1'\) ends must be ints"),
            ("edge", "repeat", r"1 repeated edge\(s\) in the graph"),
        ],
        ids=[
            "empty_surface", "unhashable_surface", "negative_user", "bool_id",
            "float_id", "bool_t", "string_t", "entity_past_the_kb", "bool_entity",
            "unhashable_entity", "bool_nodes", "float_nodes", "bool_edge_end",
            "string_edge_end", "repeated_edge",
        ],
    )
    def test_corrupt_tweets_still_raise(
        self, small_world, tmp_path, field, value, match
    ):
        payload = world_to_dict(small_world)
        # a late tweet, so its spans are looked up after many were interned
        tweet = [t for t in payload["tweets"] if t["mentions"]][-1]
        if field == "surface":
            tweet["mentions"][0][0] = value
        elif field == "entity":
            tweet["mentions"][0][1] = value
        elif field == "nodes":
            payload["graph"]["nodes"] = value
        elif field == "edge":
            edges = payload["graph"]["edges"]
            edges.append(edges[-1] if value == "repeat" else value)
        else:
            tweet[field] = value
        path = tmp_path / "world.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(WorldFileError, match=match):
            load_world(path)


class TestStreamedFile:
    """``save_world`` encodes and ``load_world`` decodes one tweet record
    at a time; the file is the one ``json.dump`` of the whole dict wrote."""

    @pytest.mark.parametrize("name", ["world.json", "world.json.gz"])
    @pytest.mark.parametrize("tweets", ["all", "none"])
    def test_save_writes_the_bytes_of_one_dump(
        self, small_world, tmp_path, name, tweets
    ):
        world = small_world
        if tweets == "none":
            world = dataclasses.replace(small_world, tweets=[])
        path = tmp_path / name
        save_world(world, path)
        data = path.read_bytes()
        if name.endswith(".gz"):
            data = gzip.decompress(data)
        assert data == json.dumps(world_to_dict(world)).encode("utf-8")

    @pytest.mark.parametrize("name", ["world.json", "world.json.gz"])
    def test_load_holds_about_one_file_beside_the_world(
        self, small_world, tmp_path, name
    ):
        """The load's peak above what the world keeps is the parsed text
        plus slack; the whole list of tweet dicts was ≈ 3.5× the text.  The
        peak falls while parsing, before the graph exists, so it holds the
        graph as parsed edge lists where the world keeps the graph built
        from them: the bound swaps the one for the other."""
        path = tmp_path / name
        save_world(small_world, path)
        text_bytes = len(json.dumps(world_to_dict(small_world)))
        graph_text = json.dumps(graph_to_dict(small_world.graph))
        load_world(path)  # anything a first call sets up is not the load's
        tracemalloc.start()
        try:
            payload = json.loads(graph_text)
            parsed_graph = tracemalloc.get_traced_memory()[0]
            graph = graph_from_dict(payload)
            built_graph = tracemalloc.get_traced_memory()[0] - parsed_graph
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            world = load_world(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_edges == world.graph.num_edges
        assert world.tweets == small_world.tweets
        assert peak - (retained - built_graph) < text_bytes + parsed_graph + 64 * 1024

    def test_only_tweet_records_carry_the_tweet_keys(self, small_world):
        """The parser decodes an object as a tweet by its key set alone."""
        assert _TWEET_KEYS == set(tweet_to_dict(small_world.tweets[0]))
        payload = world_to_dict(small_world)
        carriers = []

        def walk(node, where):
            if isinstance(node, dict):
                if node.keys() == _TWEET_KEYS:
                    carriers.append(where)
                for key, value in node.items():
                    walk(value, where + (key,))
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, where + (i,))

        walk(payload, ())
        assert carriers == [("tweets", i) for i in range(len(small_world.tweets))]
