"""Extended 2-hop cover (Algorithm 2) tests.

Guarantees under test (DESIGN.md §5):
* distances are exact within the H-hop horizon;
* the label-recovered followee set is a non-empty subset of the exact one;
* ``reachability`` is positive exactly when the pair is reachable, equals 1
  on direct edges, and the ``exact_followees`` mode reproduces Eq. 4 exactly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.reachability import weighted_reachability
from repro.graph.transitive_closure import exact_followee_set
from repro.graph.traversal import bfs_distances
from repro.testing.oracles import build_two_hop_cover

from conftest import random_graph


def edge_list_strategy(max_nodes=9):
    return st.integers(min_value=2, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ).filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
                unique=True,
            ),
        )
    )


def assert_distances_exact(graph, cover, max_hops):
    for u in graph.nodes():
        truth = bfs_distances(graph, u, max_hops)
        for v in graph.nodes():
            if u == v:
                continue
            expected = truth.get(v, math.inf)
            assert cover.distance(u, v) == expected, (u, v)


class TestDistances:
    def test_diamond(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        assert_distances_exact(diamond_graph, cover, 4)

    def test_chain_with_horizon(self, chain_graph):
        cover = build_two_hop_cover(chain_graph, max_hops=3)
        assert cover.distance(0, 3) == 3
        assert cover.distance(0, 4) == math.inf  # beyond horizon

    def test_self_distance_zero(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        assert cover.distance(2, 2) == 0.0

    def test_random_graph(self):
        graph = random_graph(30, 110, seed=4)
        cover = build_two_hop_cover(graph)
        assert_distances_exact(graph, cover, 4)

    @given(edge_list_strategy())
    @settings(max_examples=60, deadline=None)
    def test_property_distances_exact(self, spec):
        num_nodes, edges = spec
        graph = DiGraph(num_nodes, edges)
        cover = build_two_hop_cover(graph, max_hops=4)
        assert_distances_exact(graph, cover, 4)


class TestFolloweeSets:
    def test_diamond_query(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        distance, followees = cover.query(0, 4)
        assert distance == 2
        assert followees <= {1, 2}
        assert followees  # non-empty for a reachable pair

    @given(edge_list_strategy())
    @settings(max_examples=60, deadline=None)
    def test_property_subset_of_exact(self, spec):
        num_nodes, edges = spec
        graph = DiGraph(num_nodes, edges)
        cover = build_two_hop_cover(graph, max_hops=4)
        for u in graph.nodes():
            for v in graph.nodes():
                if u == v:
                    continue
                distance, followees = cover.query(u, v)
                if distance == math.inf:
                    assert followees == set()
                    continue
                exact = exact_followee_set(graph, u, v, max_hops=4)
                assert followees <= exact, (u, v)

    def test_exact_followee_recovery(self):
        graph = random_graph(20, 70, seed=6)
        cover = build_two_hop_cover(graph)
        for u in graph.nodes():
            for v in graph.nodes():
                if u == v or cover.distance(u, v) == math.inf:
                    continue
                assert cover.exact_followee_set(u, v) == exact_followee_set(
                    graph, u, v
                )


class TestReachability:
    def test_direct_edge_is_one(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        assert cover.reachability(0, 1) == 1.0

    def test_unreachable_zero(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        assert cover.reachability(3, 4) == 0.0

    def test_exact_mode_matches_eq4(self):
        graph = random_graph(22, 80, seed=8)
        cover = build_two_hop_cover(graph)
        for u in graph.nodes():
            for v in graph.nodes():
                if u == v:
                    continue
                expected = weighted_reachability(graph, u, v, 4)
                got = cover.reachability(u, v, exact_followees=True)
                assert got == expected, (u, v)

    @given(edge_list_strategy())
    @settings(max_examples=40, deadline=None)
    def test_property_label_mode_bounds(self, spec):
        """Label-recovered R is positive iff reachable and never exceeds Eq. 4."""
        num_nodes, edges = spec
        graph = DiGraph(num_nodes, edges)
        cover = build_two_hop_cover(graph, max_hops=4)
        for u in graph.nodes():
            for v in graph.nodes():
                if u == v:
                    continue
                expected = weighted_reachability(graph, u, v, 4)
                got = cover.reachability(u, v)
                if expected == 0.0:
                    assert got == 0.0
                else:
                    assert 0.0 < got <= expected + 1e-12


class TestIndexStatistics:
    def test_label_entries_positive(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        assert cover.num_label_entries() > 0

    def test_size_bytes_positive(self, diamond_graph):
        cover = build_two_hop_cover(diamond_graph)
        assert cover.size_bytes() > 0

    def test_two_hop_smaller_than_closure_on_sparse_graph(self):
        """The selling point: 2-hop labels ≪ full closure on large sparse graphs."""
        from repro.graph.transitive_closure import build_transitive_closure_incremental

        graph = random_graph(300, 900, seed=10)
        cover = build_two_hop_cover(graph)
        closure = build_transitive_closure_incremental(graph)
        assert cover.num_label_entries() < closure.nonzero_entries()


class TestLandmarkOrdering:
    def test_all_orders_give_exact_distances(self):
        graph = random_graph(25, 90, seed=11)
        for order in ("degree", "coverage", "random"):
            cover = build_two_hop_cover(graph, order=order)
            assert_distances_exact(graph, cover, 4)

    def test_degree_order_beats_random_on_hub_graphs(self):
        # star-ish graph: hubs first shrink labels dramatically
        import random as _random

        rng = _random.Random(3)
        edges = []
        for node in range(5, 60):
            edges.append((node, rng.randrange(5)))        # follow a hub
            edges.append((rng.randrange(5), node))        # hub follows back
        graph = DiGraph(60, edges)
        degree_cover = build_two_hop_cover(graph, order="degree")
        random_cover = build_two_hop_cover(graph, order="random", seed=9)
        assert degree_cover.num_label_entries() <= random_cover.num_label_entries()

    def test_unknown_order_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            build_two_hop_cover(diamond_graph, order="alphabetical")
