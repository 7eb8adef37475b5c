"""Extended transitive closure: incremental vs exact vs the naive oracle (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicTransitiveClosure
from repro.graph.reachability import weighted_reachability
from repro.graph.transitive_closure import (
    build_transitive_closure_incremental,
    exact_followee_set,
)
from repro.testing.oracles import build_transitive_closure_naive

from conftest import random_graph


def edge_list_strategy(max_nodes=9):
    """Random simple digraphs as (num_nodes, edges)."""
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


def closure_with_storage(graph, backend):
    """A closure in each storage the container supports: the incremental
    builder's dense matrix, or the dict rows a dynamic snapshot freezes."""
    if backend == "dense":
        return build_transitive_closure_incremental(graph)
    return DynamicTransitiveClosure(graph).snapshot()


def assert_closure_matches_exact(graph, closure, max_hops):
    for u in graph.nodes():
        for v in graph.nodes():
            if u == v:
                continue
            expected = weighted_reachability(graph, u, v, max_hops)
            assert closure.reachability(u, v) == expected, (u, v)


class TestIncrementalMatchesExact:
    def test_diamond(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        assert_closure_matches_exact(diamond_graph, closure, 4)

    def test_chain(self, chain_graph):
        closure = build_transitive_closure_incremental(chain_graph)
        assert_closure_matches_exact(chain_graph, closure, 4)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_random_graph_both_backends(self, backend):
        graph = random_graph(25, 80, seed=3)
        closure = closure_with_storage(graph, backend)
        assert closure.backend == backend
        assert_closure_matches_exact(graph, closure, 4)

    @pytest.mark.parametrize("max_hops", [1, 2, 3])
    def test_hop_horizons(self, max_hops):
        graph = random_graph(15, 40, seed=7)
        closure = build_transitive_closure_incremental(graph, max_hops=max_hops)
        assert_closure_matches_exact(graph, closure, max_hops)

    @given(edge_list_strategy())
    @settings(max_examples=60, deadline=None)
    def test_property_random_graphs(self, spec):
        num_nodes, edges = spec
        graph = DiGraph.from_edges(num_nodes, edges)
        closure = build_transitive_closure_incremental(graph, max_hops=4)
        assert_closure_matches_exact(graph, closure, 4)


class TestNaiveBuilder:
    def test_matches_incremental(self):
        graph = random_graph(12, 30, seed=9)
        naive = build_transitive_closure_naive(graph)
        incremental = build_transitive_closure_incremental(graph)
        for u in graph.nodes():
            for v in graph.nodes():
                assert naive.reachability(u, v) == incremental.reachability(u, v)

    def test_pair_restriction(self, diamond_graph):
        closure = build_transitive_closure_naive(diamond_graph, pairs=[(0, 4)])
        assert closure.reachability(0, 4) == pytest.approx(1 / 3)
        assert closure.reachability(0, 1) == 0.0  # pair not computed


class TestClosureContainer:
    def test_reachable_from(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        row = closure.reachable_from(0)
        assert set(row) == {1, 2, 3, 4}
        assert row[4] == pytest.approx(1 / 3)

    def test_nonzero_entries_counts(self, chain_graph):
        closure = build_transitive_closure_incremental(chain_graph, max_hops=4)
        assert closure.nonzero_entries() == 4 + 3 + 2 + 1

    def test_size_bytes_positive(self, diamond_graph):
        for backend in ("dense", "sparse"):
            closure = closure_with_storage(diamond_graph, backend)
            assert closure.size_bytes() > 0

    def test_dense_size_is_three_bytes_a_pair_plus_degrees(self, diamond_graph):
        """A ``uint8`` distance and a ``uint16`` count per pair, one list
        slot per out-degree."""
        nodes = diamond_graph.num_nodes
        closure = build_transitive_closure_incremental(diamond_graph)
        assert closure.size_bytes() == 3 * nodes * nodes + 8 * nodes

    def test_constructor_requires_exactly_one_storage(self):
        from repro.graph.transitive_closure import TransitiveClosure

        with pytest.raises(ValueError):
            TransitiveClosure(2, 4)


class TestExactFolloweeSet:
    def test_diamond(self, diamond_graph):
        assert exact_followee_set(diamond_graph, 0, 4) == {1, 2}

    def test_unreachable(self, diamond_graph):
        assert exact_followee_set(diamond_graph, 3, 0) == set()
