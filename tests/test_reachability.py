"""Exact weighted reachability (Eq. 4) tests."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.reachability import weighted_reachability, weighted_reachability_from


class TestWeightedReachability:
    def test_direct_followee_is_one(self, diamond_graph):
        # Algorithm 1 line 3: direct follow edge => R = 1.
        assert weighted_reachability(diamond_graph, 0, 1) == 1.0

    def test_diamond_two_hop(self, diamond_graph):
        # d = 2, |F_uv| = 2 (both a and b), |F_u| = 3 => R = 1/2 * 2/3.
        assert weighted_reachability(diamond_graph, 0, 4) == pytest.approx(1 / 3)

    def test_unreachable_is_zero(self, diamond_graph):
        assert weighted_reachability(diamond_graph, 3, 4) == 0.0

    def test_self_reachability_zero(self, diamond_graph):
        assert weighted_reachability(diamond_graph, 0, 0) == 0.0

    def test_hop_horizon(self, chain_graph):
        assert weighted_reachability(chain_graph, 0, 4, max_hops=3) == 0.0
        assert weighted_reachability(chain_graph, 0, 4, max_hops=4) > 0.0

    def test_chain_three_hops(self, chain_graph):
        # single path, one followee out of one => R = 1/3 * 1/1
        assert weighted_reachability(chain_graph, 0, 3) == pytest.approx(1 / 3)

    def test_more_connecting_followees_raise_reachability(self):
        # u follows a, b, c; only a reaches v vs. a and b reach v.
        sparse = DiGraph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
        dense = DiGraph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])
        assert weighted_reachability(dense, 0, 4) > weighted_reachability(
            sparse, 0, 4
        )

    def test_shorter_distance_raises_reachability(self):
        # identical followee fractions, different path lengths
        two_hop = DiGraph(3, [(0, 1), (1, 2)])
        three_hop = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert weighted_reachability(two_hop, 0, 2) > weighted_reachability(
            three_hop, 0, 3
        )

    def test_no_followees_zero(self):
        graph = DiGraph(2)
        assert weighted_reachability(graph, 0, 1) == 0.0


class TestSingleSourceVariant:
    def test_matches_pairwise(self, diamond_graph):
        rows = weighted_reachability_from(diamond_graph, 0)
        for target in diamond_graph.nodes():
            if target == 0:
                continue
            assert rows.get(target, 0.0) == weighted_reachability(
                diamond_graph, 0, target
            )

    def test_respects_horizon(self, chain_graph):
        rows = weighted_reachability_from(chain_graph, 0, max_hops=2)
        assert set(rows) == {1, 2}

    def test_empty_for_sink_node(self, diamond_graph):
        assert weighted_reachability_from(diamond_graph, 4) == {}
