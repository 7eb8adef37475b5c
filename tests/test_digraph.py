"""DiGraph container tests."""

import pytest

from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = DiGraph(3)
        assert graph.num_nodes == 3
        assert graph.num_edges == 0

    def test_add_edge(self):
        graph = DiGraph(2)
        assert graph.add_edge(0, 1)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_duplicate_edge_ignored(self):
        graph = DiGraph(2)
        graph.add_edge(0, 1)
        assert not graph.add_edge(0, 1)
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        graph = DiGraph(2)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_out_of_range_rejected(self):
        graph = DiGraph(2)
        with pytest.raises(IndexError):
            graph.add_edge(0, 5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(-1)

    def test_from_edges(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert graph.num_edges == 2


class TestAdjacency:
    def test_followee_and_follower_views(self):
        graph = DiGraph.from_edges(3, [(0, 1), (2, 1)])
        assert list(graph.out_neighbors(0)) == [1]
        assert sorted(graph.in_neighbors(1)) == [0, 2]

    def test_degrees(self):
        graph = DiGraph.from_edges(3, [(0, 1), (0, 2), (1, 0)])
        assert graph.out_degree(0) == 2
        assert graph.in_degree(0) == 1
        assert graph.degree(0) == 3

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        graph = DiGraph.from_edges(3, edges)
        assert sorted(graph.edges()) == sorted(edges)

    def test_len_is_node_count(self):
        assert len(DiGraph(7)) == 7


class TestDerived:
    def test_stats(self):
        graph = DiGraph.from_edges(3, [(0, 1), (0, 2)])
        stats = graph.stats()
        assert stats["nodes"] == 3
        assert stats["edges"] == 2
        assert stats["max_degree"] == 2
        assert stats["avg_degree"] == pytest.approx(4 / 3)

    def test_reverse(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(1, 0)
        assert not reversed_graph.has_edge(0, 1)
