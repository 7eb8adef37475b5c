"""User interest (Eq. 3/8) and reachability provider tests."""

import pytest

from repro.core.interest import normalized_interest, user_interest
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.testing.oracles import OnlineReachability, build_two_hop_cover

from conftest import random_graph


class TestUserInterest:
    def test_average_over_influential_users(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        # R(0,1) = 1, R(0,4) = 1/3 -> average 2/3
        assert user_interest(closure, 0, [1, 4]) == pytest.approx(2 / 3)

    def test_empty_influential_set(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        assert user_interest(closure, 0, []) == 0.0

    def test_unreachable_users_contribute_zero(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        assert user_interest(closure, 3, [0, 4]) == 0.0


class TestNormalizedInterest:
    def test_shares_sum_to_one(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        shares = normalized_interest(closure, 0, {10: [1], 20: [4]})
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[10] > shares[20]

    def test_all_silent(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        shares = normalized_interest(closure, 3, {10: [4], 20: [0]})
        assert shares == {10: 0.0, 20: 0.0}

    def test_ranking_preserved(self, diamond_graph):
        closure = build_transitive_closure_incremental(diamond_graph)
        raw = {e: user_interest(closure, 0, inf) for e, inf in
               {1: [1], 2: [4], 3: [3]}.items()}
        shares = normalized_interest(closure, 0, {1: [1], 2: [4], 3: [3]})
        assert sorted(raw, key=raw.get) == sorted(shares, key=shares.get)


class TestOnlineReachability:
    def test_matches_transitive_closure(self):
        graph = random_graph(30, 100, seed=2)
        closure = build_transitive_closure_incremental(graph)
        online = OnlineReachability(graph)
        for u in range(0, 30, 3):
            for v in range(30):
                assert online.reachability(u, v) == closure.reachability(u, v)

    def test_matches_two_hop_exact_mode(self):
        graph = random_graph(20, 60, seed=5)
        cover = build_two_hop_cover(graph)
        online = OnlineReachability(graph)
        for u in range(20):
            for v in range(20):
                if u == v:
                    continue
                assert cover.reachability(
                    u, v, exact_followees=True
                ) == online.reachability(u, v)

    def test_cache_eviction(self, diamond_graph):
        online = OnlineReachability(diamond_graph, cache_size=2)
        for source in range(5):
            online.reachability(source, 0)
        assert len(online._cache) <= 2

    def test_bad_cache_size(self, diamond_graph):
        with pytest.raises(ValueError):
            OnlineReachability(diamond_graph, cache_size=0)
