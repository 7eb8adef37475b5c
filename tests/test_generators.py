"""Social graph generator tests."""

import random

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.generators import random_digraph, topical_social_graph


def make_interests(num_users, num_topics, seed=0):
    rng = np.random.default_rng(seed)
    interests = rng.random((num_users, num_topics))
    return interests / interests.sum(axis=1, keepdims=True)


class TestRandomDigraph:
    def test_exact_edge_count(self):
        graph = random_digraph(20, 50, random.Random(1))
        assert graph.num_edges == 50
        assert graph.num_nodes == 20

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            random_digraph(3, 100)

    def test_deterministic_with_seed(self):
        a = random_digraph(15, 40, random.Random(7))
        b = random_digraph(15, 40, random.Random(7))
        assert sorted(a.edges()) == sorted(b.edges())


class TestTopicalSocialGraph:
    def test_hub_lists_must_match_topics(self):
        interests = make_interests(10, 3)
        with pytest.raises(ValueError):
            topical_social_graph(interests, hubs=[[0]], rng=random.Random(0))

    def test_hubs_attract_followers(self, monkeypatch):
        num_users, num_topics = 150, 3
        interests = np.zeros((num_users, num_topics))
        hubs = [[0], [1], [2]]
        for user in range(num_users):
            interests[user, user % num_topics] = 1.0
        for topic, topic_hubs in enumerate(hubs):
            for hub in topic_hubs:
                interests[hub] = 0.0
                interests[hub, topic] = 1.0
        monkeypatch.setattr(generators, "ISOLATION_RATE", 0.0)
        graph = topical_social_graph(interests, hubs, random.Random(2))
        hub_in = sum(graph.in_degree(h) for row in hubs for h in row) / 3
        non_hub_in = sum(
            graph.in_degree(u) for u in range(3, num_users)
        ) / (num_users - 3)
        assert hub_in > 3 * non_hub_in

    def test_isolation_rate_produces_quiet_users(self, monkeypatch):
        interests = make_interests(200, 4, seed=3)
        hubs = [[0], [1], [2], [3]]
        monkeypatch.setattr(generators, "ISOLATION_RATE", 0.5)
        graph = topical_social_graph(interests, hubs, random.Random(5))
        quiet = sum(1 for u in range(4, 200) if graph.out_degree(u) <= 2)
        assert quiet > 50  # roughly half the non-hub population

    def test_determinism(self):
        interests = make_interests(60, 3, seed=1)
        hubs = [[0], [1], [2]]
        a = topical_social_graph(interests, hubs, rng=random.Random(9))
        b = topical_social_graph(interests, hubs, rng=random.Random(9))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_homophily(self, monkeypatch):
        """Users follow same-dominant-topic peers more than cross-topic ones."""
        num_users, num_topics = 240, 4
        interests = np.full((num_users, num_topics), 0.02)
        dominant = [u % num_topics for u in range(num_users)]
        for user, topic in enumerate(dominant):
            interests[user, topic] = 1.0
        interests = interests / interests.sum(axis=1, keepdims=True)
        hubs = [[t] for t in range(num_topics)]
        monkeypatch.setattr(generators, "ISOLATION_RATE", 0.0)
        monkeypatch.setattr(generators, "RANDOM_PER_USER", 0.0)
        graph = topical_social_graph(interests, hubs, random.Random(4))
        same = cross = 0
        for u, v in graph.edges():
            if u < num_topics or v < num_topics:
                continue  # skip hub edges
            if dominant[u] == dominant[v]:
                same += 1
            else:
                cross += 1
        assert same > cross
