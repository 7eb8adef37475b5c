"""DiGraph container tests."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    StreamingWorldProfile,
    random_digraph,
    streaming_world_graph,
)
from repro.io import graph_from_dict, graph_to_dict


class TestConstruction:
    def test_empty_graph(self):
        graph = DiGraph(3)
        assert graph.num_nodes == 3
        assert graph.num_edges == 0

    def test_edges_come_from_the_constructor(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_repeated_edge_keeps_its_first_occurrence(self):
        graph = DiGraph(3, [(0, 2), (0, 1), (0, 2), (1, 2)])
        assert graph.num_edges == 3
        assert list(graph.edges()) == [(0, 2), (0, 1), (1, 2)]
        assert graph.in_neighbors(2) == (0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        for edge in [(0, 5), (5, 0), (-1, 0), (0, -2)]:
            with pytest.raises(IndexError):
                DiGraph(2, [edge])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(-1)

    @pytest.mark.parametrize(
        "nodes, edge",
        [(True, (0, 0)), (2.0, (0, 1)), ("2", (0, 1)),
         (3, (True, 2)), (3, (0, 1.0)), (3, ("0", 1))],
        ids=["bool_count", "float_count", "str_count",
             "bool_end", "float_end", "str_end"],
    )
    def test_non_int_count_or_end_rejected(self, nodes, edge):
        with pytest.raises(TypeError):
            DiGraph(nodes, [edge])

    def test_no_mutator(self):
        graph = DiGraph(2, [(0, 1)])
        assert not hasattr(graph, "add_edge") and not hasattr(graph, "epoch")
        assert isinstance(graph.out_neighbors(0), tuple)


class TestAdjacency:
    def test_followee_and_follower_views(self):
        graph = DiGraph(3, [(0, 1), (2, 1)])
        assert list(graph.out_neighbors(0)) == [1]
        assert sorted(graph.in_neighbors(1)) == [0, 2]

    def test_degrees(self):
        graph = DiGraph(3, [(0, 1), (0, 2), (1, 0)])
        assert graph.out_degree(0) == 2
        assert graph.in_degree(0) == 1
        assert graph.degree(0) == 3

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        graph = DiGraph(3, edges)
        assert sorted(graph.edges()) == sorted(edges)

    def test_len_is_node_count(self):
        assert len(DiGraph(7)) == 7

    def test_each_node_is_one_int_object(self):
        # ints parsed apart, as a world file's are: equal, not identical
        edges = [(int(u), int(v)) for u, v in (("299", "257"), ("258", "257"), ("257", "299"))]
        graph = DiGraph(300, edges)
        assert graph.out_neighbors(299)[0] is graph.in_neighbors(299)[0]
        assert graph.in_neighbors(257)[0] is graph.out_neighbors(257)[0]


class TestAgainstReference:
    """The graph equals a dict-of-lists built edge by edge, repeats dropped."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda e: e[0] != e[1]
                    ),
                    max_size=40,
                ),
            )
        )
    )
    def test_matches_a_naive_reference(self, case):
        num_nodes, edges = case
        out = {u: [] for u in range(num_nodes)}
        into = {u: [] for u in range(num_nodes)}
        for u, v in edges:
            if v not in out[u]:
                out[u].append(v)
                into[v].append(u)
        graph = DiGraph(num_nodes, edges)
        for u in range(num_nodes):
            assert list(graph.out_neighbors(u)) == out[u]
            assert list(graph.in_neighbors(u)) == into[u]
            assert graph.degree(u) == len(out[u]) + len(into[u])
        reference_edges = [(u, v) for u in range(num_nodes) for v in out[u]]
        assert graph.num_edges == len(reference_edges)
        assert list(graph.edges()) == reference_edges
        payload = graph_to_dict(graph)
        assert payload == {"nodes": num_nodes, "edges": reference_edges}
        again = graph_from_dict(json.loads(json.dumps(payload)))
        assert graph_to_dict(again) == payload


def _digest(graph: DiGraph) -> str:
    return hashlib.sha256(json.dumps(graph_to_dict(graph)).encode()).hexdigest()


class TestRecordedGenerators:
    """sha256 of ``graph_to_dict`` for each generator, recorded when the
    graph still grew one ``add_edge`` at a time: edge order cannot drift
    unseen."""

    def test_random_digraph(self):
        assert _digest(random_digraph(60, 400)) == (
            "2588f275cef2560ea950c404e131575d43546127d73c1d7eb0c8cbec36d48841"
        )

    def test_topical_social_graph_of_small_world(self, small_world):
        assert _digest(small_world.graph) == (
            "5ef4c15dbfa57323e7b4578e47dae0ec58bf0cf3e85149536457edeaf35c3f9f"
        )

    def test_streaming_world_graph(self):
        profile = StreamingWorldProfile(num_users=300, num_factions=8, seed=11)
        assert _digest(streaming_world_graph(profile)) == (
            "a0935902a33364d6271730e5e3b1d0e6cea6a17d895bbaa8a4b920d75fd6a832"
        )


class TestDerived:
    def test_stats(self):
        graph = DiGraph(3, [(0, 1), (0, 2)])
        stats = graph.stats()
        assert stats["nodes"] == 3
        assert stats["edges"] == 2
        assert stats["max_degree"] == 2
        assert stats["avg_degree"] == pytest.approx(4 / 3)

    def test_reverse(self):
        graph = DiGraph(2, [(0, 1)])
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(1, 0)
        assert not reversed_graph.has_edge(0, 1)
