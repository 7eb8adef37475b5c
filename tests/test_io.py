"""Serialization round-trip tests."""

import pytest

from repro.graph.digraph import DiGraph
from repro.io import (
    graph_from_dict,
    graph_to_dict,
    kb_from_dict,
    kb_to_dict,
    load_world,
    save_world,
    world_from_dict,
    world_to_dict,
)


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
