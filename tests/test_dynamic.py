"""Dynamic (incrementally maintained) transitive closure tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicTransitiveClosure, replay_follow_events
from repro.graph.reachability import weighted_reachability_from
from repro.graph.transitive_closure import build_transitive_closure_incremental

from conftest import random_graph


def assert_matches_rebuild(dynamic: DynamicTransitiveClosure):
    """The maintained closure must equal a from-scratch rebuild, and every
    row a fresh single-source walk."""
    rebuilt = build_transitive_closure_incremental(
        dynamic.graph, max_hops=dynamic.max_hops
    )
    for u in dynamic.graph.nodes():
        assert dynamic.reachable_from(u) == weighted_reachability_from(
            dynamic.graph, u, dynamic.max_hops
        )
        for v in dynamic.graph.nodes():
            assert dynamic.reachability(u, v) == rebuilt.reachability(u, v), (u, v)


class TestConstruction:
    def test_initial_state_matches_static(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        assert_matches_rebuild(dynamic)

    def test_snapshot_is_queryable(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        frozen = dynamic.snapshot()
        assert frozen.reachability(0, 4) == pytest.approx(1 / 3)


class TestEdgeInsertion:
    def test_single_insertion(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        # third followee (node 3) now also reaches v=4
        assert dynamic.add_edge(3, 4)
        assert_matches_rebuild(dynamic)
        # R(0,4) improved: all three followees now on shortest paths
        assert dynamic.reachability(0, 4) == pytest.approx(1 / 2)

    def test_duplicate_edge_is_noop(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        before = dynamic.rows_recomputed
        assert not dynamic.add_edge(0, 1)
        assert dynamic.rows_recomputed == before
        assert dynamic.insertions == 0

    def test_insertion_extends_reach(self, chain_graph):
        dynamic = DynamicTransitiveClosure(chain_graph, max_hops=4)
        assert dynamic.reachability(1, 4) > 0.0
        assert dynamic.reachability(0, 4) > 0.0
        dynamic.add_edge(4, 0)  # close the cycle
        assert_matches_rebuild(dynamic)

    def test_new_node_then_edges(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        fresh = dynamic.add_node()
        assert dynamic.reachability(fresh, 0) == 0.0
        dynamic.add_edge(fresh, 0)
        assert dynamic.reachability(fresh, 0) == 1.0
        assert dynamic.reachability(fresh, 4) > 0.0  # via 0's followees
        assert_matches_rebuild(dynamic)

    def test_random_insertion_sequence(self):
        rng = random.Random(3)
        graph = random_graph(18, 40, seed=1)
        dynamic = DynamicTransitiveClosure(graph)
        for _ in range(25):
            u = rng.randrange(18)
            v = rng.randrange(18)
            if u != v:
                dynamic.add_edge(u, v)
        assert_matches_rebuild(dynamic)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_any_insertion_order(self, edges):
        dynamic = DynamicTransitiveClosure(DiGraph(8), max_hops=4)
        for u, v in edges:
            dynamic.add_edge(u, v)
        assert_matches_rebuild(dynamic)


class TestMaintenanceCost:
    def test_affected_rows_are_a_fraction_of_the_graph(self):
        graph = random_graph(120, 360, seed=5)
        dynamic = DynamicTransitiveClosure(graph)
        rng = random.Random(9)
        inserted = 0
        while inserted < 10:
            u, v = rng.randrange(120), rng.randrange(120)
            if u != v and dynamic.add_edge(u, v):
                inserted += 1
        # far fewer rows touched than 10 full rebuilds (10 * 120 rows)
        assert dynamic.rows_recomputed < 10 * 120

    def test_replay_follow_events(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        events = [(3, 4), (3, 4), (4, 0)]
        assert replay_follow_events(dynamic, events) == 2
        assert replay_follow_events(dynamic, [(0, 4), (1, 2)], limit=1) == 1


class TestEdgeDeletion:
    def test_single_deletion(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        assert dynamic.remove_edge(1, 4)
        assert_matches_rebuild(dynamic)
        # only one followee path remains: R(0,4) = 1/2 * 1/3
        assert dynamic.reachability(0, 4) == pytest.approx(1 / 6)

    def test_missing_edge_is_noop(self, diamond_graph):
        dynamic = DynamicTransitiveClosure(diamond_graph)
        before = dynamic.rows_recomputed
        assert not dynamic.remove_edge(3, 0)
        assert dynamic.rows_recomputed == before

    def test_deletion_disconnects(self, chain_graph):
        dynamic = DynamicTransitiveClosure(chain_graph)
        dynamic.remove_edge(2, 3)
        assert dynamic.reachability(0, 4) == 0.0
        assert_matches_rebuild(dynamic)

    def test_mixed_insert_delete_sequence(self):
        rng = random.Random(13)
        graph = random_graph(15, 35, seed=4)
        dynamic = DynamicTransitiveClosure(graph)
        for _ in range(30):
            u, v = rng.randrange(15), rng.randrange(15)
            if u == v:
                continue
            if graph.has_edge(u, v) and rng.random() < 0.5:
                dynamic.remove_edge(u, v)
            elif not graph.has_edge(u, v):
                dynamic.add_edge(u, v)
        assert_matches_rebuild(dynamic)

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ).filter(lambda e: e[1] != e[2]),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_mixed_mutations(self, operations):
        dynamic = DynamicTransitiveClosure(DiGraph(7), max_hops=4)
        for is_delete, u, v in operations:
            if is_delete:
                dynamic.remove_edge(u, v)
            else:
                dynamic.add_edge(u, v)
        assert_matches_rebuild(dynamic)
