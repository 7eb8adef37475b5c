"""Entity recency (Eq. 9) and propagation network (Eq. 11) tests."""

import pytest

from repro.config import DAY, PROPAGATION_LAMBDA, RELATEDNESS_THRESHOLD
from repro.core import recency
from repro.core.recency import (
    RecencyPropagationNetwork,
    propagated_recency,
    sliding_window_recency,
)
from repro.kb.complemented import ComplementedKnowledgebase


class TestSlidingWindow:
    def test_burst_gate(self, tiny_ckb):
        # e0 has 9 tweets on days 0..8; window 3d at day 8 covers days 5-8
        scores = sliding_window_recency(
            tiny_ckb, [0, 1, 2], now=8 * DAY, window=3 * DAY, burst_threshold=3
        )
        assert scores[0] > 0.0
        # e1's last tweet is day 3 — outside the window
        assert scores[1] == 0.0

    def test_below_threshold_is_zero(self, tiny_ckb):
        scores = sliding_window_recency(
            tiny_ckb, [0, 1, 2], now=8 * DAY, window=3 * DAY, burst_threshold=100
        )
        assert all(v == 0.0 for v in scores.values())

    def test_normalization_over_candidates(self, tiny_ckb):
        scores = sliding_window_recency(
            tiny_ckb, [0, 1, 2], now=2 * DAY, window=3 * DAY, burst_threshold=1
        )
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_no_recent_tweets(self, tiny_ckb):
        scores = sliding_window_recency(
            tiny_ckb, [0, 1, 2], now=100 * DAY, window=3 * DAY, burst_threshold=1
        )
        assert scores == {0: 0.0, 1: 0.0, 2: 0.0}


def build_network(kb, threshold=0.5, lam=0.5):
    return RecencyPropagationNetwork(
        kb, relatedness_threshold=threshold, propagation_lambda=lam
    )


class TestNetworkConstruction:
    @pytest.mark.parametrize(
        "threshold, lam, match",
        [(1.5, 0.5, "relatedness_threshold"), (0.5, -0.1, "propagation_lambda")],
    )
    def test_out_of_range_parameter_rejected(self, tiny_kb, threshold, lam, match):
        with pytest.raises(ValueError, match=match):
            build_network(tiny_kb, threshold=threshold, lam=lam)

    def test_defaults_are_the_shipped_constants(self, tiny_kb):
        default = RecencyPropagationNetwork(tiny_kb)
        explicit = build_network(tiny_kb, RELATEDNESS_THRESHOLD, PROPAGATION_LAMBDA)
        assert default.propagation_lambda == PROPAGATION_LAMBDA
        entities = range(tiny_kb.num_entities)
        assert [default.neighbors(e) for e in entities] == [
            explicit.neighbors(e) for e in entities
        ]

    def test_co_candidates_never_connected(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.0)
        # e0 and e1 share the surface "jordan" but are also... they are in
        # different clusters anyway; check a pair with shared surface and links.
        for entity_id in (0, 1, 2):
            neighbors = {n for n, _ in network.neighbors(entity_id)}
            assert not neighbors & {0, 1, 2}

    def test_threshold_cuts_edges(self, tiny_kb):
        permissive = build_network(tiny_kb, threshold=0.0)
        strict = build_network(tiny_kb, threshold=0.99)
        assert permissive.num_edges >= strict.num_edges

    def test_transition_weights_normalized(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.1)
        for entity in tiny_kb.entities():
            neighbors = network.neighbors(entity.entity_id)
            if neighbors:
                assert sum(w for _, w in neighbors) == pytest.approx(1.0)

    def test_components_partition_connected_entities(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.1)
        seen = set()
        for entity in tiny_kb.entities():
            component = network.component(entity.entity_id)
            assert entity.entity_id in component
            seen.update(component)
        assert network.num_components >= 1

    def test_isolated_entity_singleton_component(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.99)
        # with an impossible threshold every entity is isolated
        assert network.component(0) == [0]

    def test_invalid_parameters(self, tiny_kb):
        with pytest.raises(ValueError):
            build_network(tiny_kb, threshold=2.0)
        with pytest.raises(ValueError):
            build_network(tiny_kb, lam=-1.0)


def cluster_product(network, entity_id, initial):
    """``(members, M·S⁰)`` of the Eq. 11 operator of ``entity_id``'s
    cluster, ``S⁰`` read off ``initial`` (missing members are 0)."""
    index = network.component_index(entity_id)
    members = network.component_members(index)
    vector = [initial.get(member, 0.0) for member in members]
    return members, network.operator(index) @ vector


def nba_burst(kb, now=10 * DAY):
    """Eight tweets on NBA (4) half a day before ``now``, nothing else."""
    ckb = ComplementedKnowledgebase(kb)
    for i in range(8):
        ckb.link_tweet(4, user=100 + i, timestamp=now - 0.5 * DAY)
    return ckb


class TestPropagation:
    def test_lambda_one_keeps_initial(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.1, lam=1.0)
        initial = {3: 5.0, 4: 1.0}
        members, result = cluster_product(network, 4, initial)
        assert 3 in members
        for member, value in zip(members, result):
            assert value == pytest.approx(initial.get(member, 0.0))

    def test_recency_flows_to_related_entity(self, tiny_kb):
        # NBA (4) bursts; Michael Jordan (basketball) (0) should inherit.
        network = build_network(tiny_kb, threshold=0.1, lam=0.5)
        assert 0 in network.component(4)  # same basketball cluster
        scores = propagated_recency(
            nba_burst(tiny_kb), network, [0, 1, 2], now=10 * DAY,
            window=3 * DAY, burst_threshold=3,
        )
        assert scores[0] > 0.0

    def test_no_flow_across_clusters(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.1, lam=0.5)
        # ICML (5) sits in the ML cluster — untouched by an NBA burst
        assert network.component_index(5) != network.component_index(4)
        scores = propagated_recency(
            nba_burst(tiny_kb), network, [0, 5], now=10 * DAY,
            window=3 * DAY, burst_threshold=3,
        )
        assert scores == {0: 1.0, 5: 0.0}

    def test_untouched_components_not_computed(self, tiny_kb):
        network = build_network(tiny_kb, threshold=0.1)
        scores = propagated_recency(
            nba_burst(tiny_kb), network, [], now=10 * DAY,
            window=3 * DAY, burst_threshold=3,
        )
        assert scores == {}

    def test_convergence_fixed_point(self, tiny_kb, monkeypatch):
        monkeypatch.setattr(recency, "PROPAGATION_STEPS", 200)
        network = RecencyPropagationNetwork(
            tiny_kb, relatedness_threshold=0.1, propagation_lambda=0.5
        )
        initial = {4: 10.0, 3: 2.0}
        members, values = cluster_product(network, 4, initial)
        result = dict(zip(members, values))
        # fixed point: S = λ S0 + (1-λ) P S
        for entity_id in members:
            incoming = sum(w * result[n] for n, w in network.neighbors(entity_id))
            expected = 0.5 * initial.get(entity_id, 0.0) + 0.5 * incoming
            assert result[entity_id] == pytest.approx(expected, abs=1e-6)


class TestPropagatedRecency:
    def test_burst_on_related_entity_lifts_candidate(self, tiny_kb):
        """The ICML scenario: no tweets on Michael Jordan (ML) yet, but the
        conference bursts — propagation should lift the ML candidate."""
        ckb = ComplementedKnowledgebase(tiny_kb)
        now = 10 * DAY
        for i in range(8):  # ICML (5) bursts
            ckb.link_tweet(5, user=100 + i, timestamp=now - 0.5 * DAY)
        network = build_network(tiny_kb, threshold=0.1, lam=0.5)
        with_prop = propagated_recency(
            ckb, network, [0, 1, 2], now=now, window=3 * DAY, burst_threshold=3
        )
        without = sliding_window_recency(
            ckb, [0, 1, 2], now=now, window=3 * DAY, burst_threshold=3
        )
        assert without[1] == 0.0  # no direct tweets on the ML candidate
        assert with_prop[1] > 0.0  # reinforced by ICML

    def test_normalized_over_candidates(self, tiny_ckb, tiny_kb):
        network = build_network(tiny_kb, threshold=0.1)
        scores = propagated_recency(
            tiny_ckb, network, [0, 1, 2], now=2 * DAY, window=3 * DAY, burst_threshold=1
        )
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_all_silent(self, tiny_kb):
        ckb = ComplementedKnowledgebase(tiny_kb)
        network = build_network(tiny_kb, threshold=0.1)
        scores = propagated_recency(
            ckb, network, [0, 1, 2], now=0.0, window=DAY, burst_threshold=1
        )
        assert scores == {0: 0.0, 1: 0.0, 2: 0.0}
