"""BFS / shortest-path-DAG traversal tests."""

from repro.graph.digraph import DiGraph
from repro.graph.traversal import (
    bfs_distances,
    followees_on_shortest_paths,
    shortest_path_dag,
)


class TestBfsDistances:
    def test_chain_distances(self, chain_graph):
        assert bfs_distances(chain_graph, 0, max_hops=10) == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_hop_horizon_truncates(self, chain_graph):
        assert bfs_distances(chain_graph, 0, max_hops=2) == {1: 1, 2: 2}

    def test_source_not_included(self, diamond_graph):
        assert 0 not in bfs_distances(diamond_graph, 0, max_hops=4)

    def test_unreachable_nodes_absent(self):
        graph = DiGraph(3, [(0, 1)])
        assert 2 not in bfs_distances(graph, 0, max_hops=5)

    def test_directionality(self, chain_graph):
        assert bfs_distances(chain_graph, 4, max_hops=5) == {}


class TestShortestPathDag:
    def test_diamond_has_two_predecessors(self, diamond_graph):
        dist, preds = shortest_path_dag(diamond_graph, 0, max_hops=4)
        assert dist[4] == 2
        assert sorted(preds[4]) == [1, 2]

    def test_chain_single_predecessors(self, chain_graph):
        _, preds = shortest_path_dag(chain_graph, 0, max_hops=5)
        assert preds[3] == [2]

    def test_only_shortest_predecessors_recorded(self):
        # 0->1->3 and 0->2->4->3: node 3 reachable at distance 2 and 3;
        # only the distance-2 predecessor counts.
        graph = DiGraph(5, [(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)])
        dist, preds = shortest_path_dag(graph, 0, max_hops=4)
        assert dist[3] == 2
        assert preds[3] == [1]


class TestFolloweesOnShortestPaths:
    def test_diamond(self, diamond_graph):
        dist, preds = shortest_path_dag(diamond_graph, 0, max_hops=4)
        followees = followees_on_shortest_paths(diamond_graph, 0, dist, preds, 4)
        assert followees == {1, 2}

    def test_direct_edge_target(self, diamond_graph):
        dist, preds = shortest_path_dag(diamond_graph, 0, max_hops=4)
        assert followees_on_shortest_paths(diamond_graph, 0, dist, preds, 1) == {1}

    def test_unreachable_target(self, diamond_graph):
        dist, preds = shortest_path_dag(diamond_graph, 0, max_hops=4)
        # node 3 has no outgoing edges; 3 -> anything is unreachable
        dist3, preds3 = shortest_path_dag(diamond_graph, 3, max_hops=4)
        assert followees_on_shortest_paths(diamond_graph, 3, dist3, preds3, 4) == set()

    def test_three_hop_path(self):
        # 0 -> 1 -> 2 -> 3 plus shortcut 0 -> 4 -> 3 (also length... 2 hops via 4)
        graph = DiGraph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
        dist, preds = shortest_path_dag(graph, 0, max_hops=4)
        assert dist[3] == 2
        followees = followees_on_shortest_paths(graph, 0, dist, preds, 3)
        assert followees == {4}
