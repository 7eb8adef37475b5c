"""The precomputed Eq. 11 operator against the iteration it replaced.

``repro.core.recency`` folds the ``k`` propagation steps into one dense
matrix per cluster and answers a mention with one row-dot per candidate;
``repro.testing.oracles`` keeps the loop.  This file holds the two to
each other (every normalized share within ``PARITY``), holds the shipped
gather (one merged-timeline read per cluster, one ordered accumulate per
row) to the per-member one with ``==``, pins the algebra of the operator
itself, and guards the cost model by *counting* knowledgebase reads
rather than timing anything.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DAY
from repro.core.candidates import CandidateGenerator
from repro.core.recency import RecencyPropagationNetwork, propagated_recency
from repro.eval.context import build_experiment
from repro.kb.builder import KBProfile
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.stream.generator import StreamProfile, SyntheticWorld
from repro.testing.oracles import (
    propagate_by_iteration,
    propagated_recency_by_iteration,
    propagated_recency_by_member,
)

#: Largest allowed |operator share − oracle share|.  The two sum the same
#: products in a different order; float64 leaves ≈1e-16 per share.
PARITY = 1e-12

NOW = 10 * DAY
WINDOW = 3 * DAY


def clustered_kb() -> Knowledgebase:
    """Twelve entities: a lopsided six-cluster (two cliques sharing entity
    3), a four-clique, and two entities (10, 11) nothing links to."""
    kb = Knowledgebase()
    for index in range(12):
        kb.add_entity(f"entity {index}")
    for clique in ((0, 1, 2, 3), (3, 4, 5), (6, 7, 8, 9)):
        for a in clique:
            for b in clique:
                if a != b:
                    kb.add_hyperlink(a, b)
    return kb


CLUSTERED_KB = clustered_kb()
CLUSTERED_NETWORK = RecencyPropagationNetwork(
    CLUSTERED_KB, relatedness_threshold=0.1, propagation_lambda=0.5
)


def bursting(kb: Knowledgebase, counts) -> ComplementedKnowledgebase:
    """A complemented KB with ``counts[e]`` links on ``e`` inside the window."""
    ckb = ComplementedKnowledgebase(kb)
    for entity_id, count in enumerate(counts):
        for user in range(count):
            ckb.link_tweet(entity_id, user=user, timestamp=NOW - DAY)
    return ckb


def assert_parity(ckb, network, candidates, now, window, threshold) -> None:
    fast = propagated_recency(ckb, network, candidates, now, window, threshold)
    slow = propagated_recency_by_iteration(
        ckb, network, candidates, now, window, threshold
    )
    assert list(fast) == list(slow) == list(candidates)
    # same products, same order of addition: not one bit may differ
    by_member = propagated_recency_by_member(
        ckb, network, candidates, now, window, threshold
    )
    assert fast == by_member, (candidates, now, fast, by_member)
    for entity_id in candidates:
        assert abs(fast[entity_id] - slow[entity_id]) <= PARITY, (
            candidates, now, entity_id, fast, slow,
        )


@pytest.fixture(scope="module")
def bench_shaped():
    """The perfbench KB shape (16 topics × 20 entities, 48 ambiguous
    groups → clusters of 20–40) over a world small enough for tier-1."""
    world = SyntheticWorld.generate(
        KBProfile(num_topics=16, entities_per_topic=20, ambiguous_groups=48, seed=23),
        StreamProfile(num_users=150, seed=23),
    )
    return build_experiment(world=world, complement_method="truth")


def recency_calls(context):
    """``propagated_recency`` arguments for every test mention of
    ``context`` that has candidates — what ``link()`` would pass."""
    config = context.config
    generator = CandidateGenerator(context.ckb.kb)
    for tweet in context.test_dataset.tweets:
        for mention in tweet.mentions:
            candidates = generator.candidates(mention.surface)
            if candidates:
                yield (
                    context.ckb, context.propagation_network, candidates,
                    tweet.timestamp, config.window, config.burst_threshold,
                )


class TestOperatorMatchesOracle:
    @pytest.mark.parametrize("threshold", [0.1, 0.2])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.6, 1.0])
    def test_tiny_kb(self, tiny_ckb, threshold, lam):
        network = RecencyPropagationNetwork(
            tiny_ckb.kb, relatedness_threshold=threshold, propagation_lambda=lam
        )
        for now in (0.0, 2 * DAY, 5 * DAY, 8 * DAY, 40 * DAY):
            for candidates in ([0, 1, 2], [0, 4], [3, 4, 0], [2], [5, 6, 1]):
                for burst_threshold in (1, 2, 3):
                    assert_parity(
                        tiny_ckb, network, candidates, now, 3 * DAY, burst_threshold
                    )

    def test_bench_shaped_world(self, bench_shaped):
        checked = 0
        for args in recency_calls(bench_shaped):
            assert_parity(*args)
            checked += 1
        assert checked > 100

    def test_dropped_early_exit_is_below_parity(self, bench_shaped):
        """The shipped operator runs a fixed ``k``; the loop it replaced
        could stop early at an L1 step below 1e-5.  On real bursts (mass
        ≥ θ1 after six damped steps) that exit never changed a share."""
        for args in recency_calls(bench_shaped):
            fast = propagated_recency(*args)
            slow = propagated_recency_by_iteration(*args, tolerance=1e-5)
            for entity_id, share in slow.items():
                assert abs(fast[entity_id] - share) <= PARITY

    @given(
        counts=st.one_of(
            st.just([0] * 12),  # nothing bursts
            st.integers(0, 11).map(  # exactly one burst
                lambda e: [7 if i == e else 0 for i in range(12)]
            ),
            st.lists(st.integers(3, 9), min_size=12, max_size=12),  # all burst
            st.lists(st.integers(0, 6), min_size=12, max_size=12),
        ),
        candidates=st.one_of(
            st.sampled_from([[0, 6, 10], [0, 1], [4, 5, 3], [10, 11], [10], [7, 0, 9]]),
            st.lists(st.integers(0, 11), min_size=1, max_size=5, unique=True),
        ),
        burst_threshold=st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_gated_vectors(self, counts, candidates, burst_threshold):
        ckb = bursting(CLUSTERED_KB, counts)
        assert_parity(
            ckb, CLUSTERED_NETWORK, candidates, NOW, WINDOW, burst_threshold
        )

    @given(
        st.dictionaries(
            st.integers(0, 11), st.floats(0.0, 50.0, allow_nan=False), max_size=12
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_whole_cluster_propagate(self, initial):
        """Each cluster's operator product ``M·S⁰`` is the loop's answer;
        an entity in no cluster keeps its initial value."""
        network = CLUSTERED_NETWORK
        slow = propagate_by_iteration(network, initial)
        for index in range(network.num_components):
            members = network.component_members(index)
            vector = [initial.get(entity_id, 0.0) for entity_id in members]
            fast = network.operator(index) @ vector
            for entity_id, value in zip(members, fast.tolist()):
                assert slow.get(entity_id, 0.0) == pytest.approx(value, abs=PARITY)
        for entity_id, value in initial.items():
            if network.operator_row(entity_id) is None:
                assert slow[entity_id] == value


class TestOperatorInvariants:
    def operators(self, network):
        return [network.operator(i) for i in range(network.num_components)]

    def test_rows_are_distributions(self, bench_shaped):
        """P is row-stochastic, so M = λ·Σ_{i<k} Qⁱ + Qᵏ is too."""
        for network in (CLUSTERED_NETWORK, bench_shaped.propagation_network):
            for operator in self.operators(network):
                assert (operator >= 0.0).all()
                assert np.abs(operator.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_align_with_component_members(self):
        network = CLUSTERED_NETWORK
        sizes = sorted(
            len(network.component_members(i)) for i in range(network.num_components)
        )
        assert sizes == [4, 6]
        for index in range(network.num_components):
            members = network.component_members(index)
            assert network.operator(index).shape == (len(members), len(members))
            for row, entity_id in enumerate(members):
                located_index, located_row = network.operator_row(entity_id)
                assert located_index == index
                assert (located_row == network.operator(index)[row]).all()
        assert network.operator_row(10) is None

    def test_no_weight_across_clusters(self):
        """A burst anywhere in one cluster moves nothing in another."""
        network = CLUSTERED_NETWORK
        assert network.component_members(0) == (0, 1, 2, 3, 4, 5)
        ckb = bursting(CLUSTERED_KB, [5] * 6 + [0] * 6)
        scores = propagated_recency(ckb, network, [6, 7, 10], NOW, WINDOW, 1)
        assert scores == {6: 0.0, 7: 0.0, 10: 0.0}
        scores = propagated_recency(ckb, network, [0, 6, 10], NOW, WINDOW, 1)
        assert scores == {0: 1.0, 6: 0.0, 10: 0.0}

    def test_lambda_one_is_identity(self):
        network = RecencyPropagationNetwork(
            CLUSTERED_KB, relatedness_threshold=0.1, propagation_lambda=1.0
        )
        for operator in self.operators(network):
            assert (operator == np.eye(len(operator))).all()


class CountingCKB(ComplementedKnowledgebase):
    """Counts window reads — the unit the recency stage costs in."""

    def __init__(self, kb: Knowledgebase) -> None:
        super().__init__(kb)
        self.entity_reads = []
        self.group_reads = []

    def recent_count(self, entity_id: int, now: float, window: float) -> int:
        self.entity_reads.append(entity_id)
        return super().recent_count(entity_id, now, window)

    def recent_counts(self, entity_ids, now: float, window: float):
        self.group_reads.append(entity_ids)
        return super().recent_counts(entity_ids, now, window)


class TestCostGuard:
    @pytest.mark.parametrize(
        "candidates, bound",
        [
            ([0, 1, 2], 6),  # three candidates, one six-cluster: gathered once
            ([0, 6], 6 + 4),
            ([0, 6, 10, 11], 6 + 4 + 2),  # isolated candidates cost one each
            ([10], 1),
        ],
    )
    def test_one_bisect_pair_per_touched_member(self, candidates, bound):
        """One call reads each touched member once — ``bound`` of them —
        and pays two bisections per *cluster*, not per member: exactly one
        ``recent_counts`` per distinct touched cluster (however many
        candidates share it) plus one ``recent_count`` per isolated
        candidate."""
        ckb = CountingCKB(CLUSTERED_KB)
        for entity_id in range(12):
            for user in range(4):
                ckb.link_tweet(entity_id, user=user, timestamp=NOW - DAY)
        propagated_recency(ckb, CLUSTERED_NETWORK, candidates, NOW, WINDOW, 2)
        network = CLUSTERED_NETWORK
        clusters = {network.component_index(c) for c in candidates} - {None}
        assert sorted(ckb.group_reads) == sorted(
            network.component_members(index) for index in clusters
        )
        assert ckb.entity_reads == [
            c for c in candidates if network.component_index(c) is None
        ]
        assert sum(map(len, ckb.group_reads)) + len(ckb.entity_reads) == bound

    def test_core_does_not_import_the_oracle(self):
        """The loop is test support: serving a mention must not load it."""
        code = (
            "import sys, repro, repro.core.linker, repro.cache, repro.serve.server\n"
            "assert 'repro.testing.oracles' not in sys.modules, 'oracle imported'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
