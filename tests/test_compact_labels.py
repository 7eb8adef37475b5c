"""Property battery: the compact 2-hop cover vs. the dict-backed oracle.

The compact cover (:mod:`repro.graph.compact_labels`) is the production
reachability index past the closure's |V|² wall, so its contract is
**bit-identity**: on any graph, every ``distance`` /
``exact_followee_set`` / ``reachability`` answer must equal the
dict-of-dicts :class:`~repro.testing.oracles.TwoHopCover` in exact-followee
mode — same values, same types — and the BFS ground truth
:func:`~repro.graph.reachability.weighted_reachability`, from no more
label entries than the oracle stores.  The randomized suite here sweeps
density, hop horizon, and seeds; the deterministic classes pin edge cases
and the ``label_bytes`` accounting.
"""

import hashlib
import json
import math
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_MAX_HOPS
from repro.graph import compact_labels
from repro.graph.compact_labels import INF, build_compact_two_hop_cover
from repro.graph.digraph import DiGraph
from repro.graph.generators import StreamingWorldProfile, streaming_world_graph
from repro.graph.reachability import (
    weighted_reachability,
    weighted_reachability_from,
)
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.io import graph_from_dict, graph_to_dict
from repro.testing.oracles import (
    build_two_hop_cover,
    weighted_reachability_from_per_target,
)

from conftest import random_graph


def assert_bit_identical(compact, oracle, graph):
    """Every query answer matches the dict cover in value AND type, from
    no more entries than it stores."""
    assert compact.num_label_entries() <= oracle.num_label_entries()
    for s in graph.nodes():
        for t in graph.nodes():
            want = oracle.distance(s, t)
            got = compact.distance(s, t)
            assert got == want, (s, t)
            assert type(got) is type(want), (s, t)
            assert compact.exact_followee_set(s, t) == oracle.exact_followee_set(
                s, t
            ), (s, t)
            assert compact.reachability(s, t) == oracle.reachability(
                s, t, exact_followees=True
            ), (s, t)


class TestRandomizedIdentity:
    """The heart of the battery: seeds x densities x hop horizons."""

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=24),
        density=st.floats(min_value=0.05, max_value=0.6),
        max_hops=st.sampled_from([1, 2, 3, 4, 6]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_dict_cover(self, nodes, density, max_hops, seed):
        edges = int(density * nodes * (nodes - 1))
        graph = random_graph(nodes, edges, seed)
        oracle = build_two_hop_cover(graph, max_hops=max_hops)
        compact = build_compact_two_hop_cover(graph, max_hops=max_hops)
        assert compact.max_hops == max_hops
        assert_bit_identical(compact, oracle, graph)
        for s in graph.nodes():
            for t in graph.nodes():
                assert compact.reachability(s, t) == weighted_reachability(
                    graph, s, t, max_hops
                ), (s, t)

    @settings(max_examples=30, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=24),
        density=st.floats(min_value=0.05, max_value=0.6),
        max_hops=st.sampled_from([1, 2, 3, 4, 6]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reversed_graph_gets_the_mirrored_index(
        self, nodes, density, max_hops, seed
    ):
        """Both searches follow one rule, so flipping every edge swaps the
        in- and out-labels and nothing else."""
        edges = int(density * nodes * (nodes - 1))
        graph = random_graph(nodes, edges, seed)
        forward = build_compact_two_hop_cover(graph, max_hops=max_hops)
        mirrored = build_compact_two_hop_cover(graph.reverse(), max_hops=max_hops)
        assert mirrored.num_label_entries() == forward.num_label_entries()
        assert mirrored.label_bytes() == forward.label_bytes()
        for s in graph.nodes():
            for t in graph.nodes():
                assert forward.distance(s, t) == mirrored.distance(t, s), (s, t)

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=20),
        density=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_exact_mode_matches_bfs_ground_truth(self, nodes, density, seed):
        """``reachability`` equals Eq. 4 computed from scratch."""
        edges = int(density * nodes * (nodes - 1))
        graph = random_graph(nodes, edges, seed)
        compact = build_compact_two_hop_cover(graph, max_hops=4)
        for s in graph.nodes():
            truth = weighted_reachability_from(graph, s, 4)
            for t in graph.nodes():
                got = compact.reachability(s, t)
                want = truth.get(t, 0.0) if s != t else 0.0
                assert got == want, (s, t)
                assert got == weighted_reachability(graph, s, t, 4), (s, t)


class TestEdgeCases:
    def test_empty_graph(self):
        graph = DiGraph(0)
        compact = build_compact_two_hop_cover(graph)
        assert compact.num_label_entries() == 0
        assert compact.label_bytes() > 0  # offsets arrays still exist

    def test_single_node(self):
        graph = DiGraph(1)
        compact = build_compact_two_hop_cover(graph)
        assert compact.distance(0, 0) == 0.0
        assert type(compact.distance(0, 0)) is float
        assert compact.reachability(0, 0) == 0.0

    def test_self_loops_rejected_by_graph(self):
        """The container forbids self-loops, so covers never see them."""
        with pytest.raises(ValueError):
            DiGraph(2, [(1, 1)])

    def test_unreachable_pair_is_inf_distance_zero_reachability(self):
        graph = DiGraph(3, [(0, 1)])  # node 2 isolated
        compact = build_compact_two_hop_cover(graph)
        oracle = build_two_hop_cover(graph)
        assert compact.distance(0, 2) == oracle.distance(0, 2) == INF
        assert compact.distance(0, 2) is INF or math.isinf(compact.distance(0, 2))
        assert compact.reachability(0, 2) == 0.0
        # 0 follows 1, which is on no path to 2
        assert compact.exact_followee_set(0, 2) == set()

    def test_beyond_horizon_is_unreachable(self, chain_graph):
        compact = build_compact_two_hop_cover(chain_graph, max_hops=2)
        # d = max_hops exactly: the d <= H test passes, m = H - 1 fails
        assert compact.distance(0, 2) == 2
        assert compact.exact_followee_set(0, 2) == {1}
        assert compact.reachability(0, 2) == 0.5
        assert compact.distance(0, 3) == INF
        assert compact.reachability(0, 3) == 0.0
        # followee 1 is within the horizon of 3, the source is not
        assert compact.distance(1, 3) == 2
        assert compact.exact_followee_set(0, 3) == set()

    def test_max_hops_over_255_rejected(self, diamond_graph):
        """Distances live in single bytes; the ctor enforces the ceiling."""
        with pytest.raises(ValueError):
            build_compact_two_hop_cover(diamond_graph, max_hops=256)

    def test_closure_shares_the_one_byte_ceiling(self):
        """A 300-node chain at ``max_hops=300`` would wrap a ``uint8``
        distance: both one-byte indexes refuse it with the same message."""
        chain = DiGraph(300, [(i, i + 1) for i in range(299)])
        with pytest.raises(ValueError, match="max_hops=300 exceeds 255") as closure:
            build_transitive_closure_incremental(chain, max_hops=300)
        with pytest.raises(ValueError) as compact:
            build_compact_two_hop_cover(chain, max_hops=300)
        assert str(closure.value) == str(compact.value)
        assert build_transitive_closure_incremental(
            chain, max_hops=255
        ).reachability(0, 255) == 1 / 255

    def test_distance_one_followee_is_target(self, diamond_graph):
        # at max_hops = 1, d_st - 1 = 0: F_st is the own-rank check alone
        for max_hops in (DEFAULT_MAX_HOPS, 1):
            compact = build_compact_two_hop_cover(diamond_graph, max_hops=max_hops)
            assert compact.distance(0, 1) == 1
            assert compact.exact_followee_set(0, 1) == {1}
            assert compact.reachability(0, 1) == 1.0
        assert compact.distance(0, 4) == INF
        assert compact.exact_followee_set(0, 4) == set()
        assert compact.reachability(0, 4) == 0.0

    @pytest.mark.parametrize(
        "edges, want_in, want_out",
        [
            pytest.param(
                [(0, 1), (0, 2)],
                {1: {0: 1}, 2: {0: 1}},
                {},
                id="pivot-of-the-landmark",
            ),
            pytest.param(
                [(2, 0), (0, 3), (3, 1), (2, 4), (4, 5), (5, 1)],
                {3: {0: 1}, 1: {0: 2}, 4: {2: 1}, 5: {2: 2, 4: 1}},
                {2: {0: 1}, 3: {1: 1}, 5: {1: 1}, 4: {1: 2}},
                id="tie",
            ),
            pytest.param(
                [(2, 3), (3, 0), (0, 1), (2, 4), (4, 5), (5, 1)],
                {1: {0: 1}, 3: {2: 1}, 4: {2: 1}, 5: {2: 2, 4: 1}},
                {3: {0: 1}, 2: {0: 2}, 5: {1: 1}, 4: {1: 2}},
                id="pivot-at-length-minus-one",
            ),
        ],
    )
    def test_prunes_exactly_what_earlier_landmarks_cover(
        self, edges, want_in, want_out
    ):
        """Labels worked out by hand; ranks equal ids (degree, ties by id).

        pivot-of-the-landmark: landmark 1's backward search meets 0 at
        one hop, and 0 is in ``L_in(1)`` at one hop, with ``L_out(0)``
        empty.  tie: landmark 1's backward search meets 2 at three hops,
        where ``(0, 1)`` in ``L_out(2)`` and ``(0, 2)`` in ``L_in(1)`` sum
        to three.  pivot-at-length-minus-one: the same meeting, through
        ``(0, 2)`` in ``L_out(2)`` and ``(0, 1)`` in ``L_in(1)``.
        """
        graph = DiGraph(1 + max(map(max, edges)), edges)
        compact = build_compact_two_hop_cover(graph, max_hops=4)

        def labels(offsets, pivots, dists):
            return {
                node: dict(zip(pivots[lo:hi], dists[lo:hi]))
                for node, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
                if hi > lo
            }

        assert list(compact._landmarks) == list(graph.nodes())
        assert labels(compact._in_offsets, compact._in_pivots, compact._in_dists) == want_in
        assert (
            labels(compact._out_offsets, compact._out_pivots, compact._out_dists)
            == want_out
        )
        assert_bit_identical(compact, build_two_hop_cover(graph, 4), graph)


class TestLayout:
    def test_runs_are_ordered_by_distance_then_rank(self, monkeypatch):
        """Every node's in- and out-run is sorted by (distance, rank) and
        holds exactly the ``distance * n + rank`` keys the build staged in
        rank order — on a graph where some staged run is not already
        distance-ordered."""
        staged = []
        flatten = compact_labels._flatten

        def spy(labels):
            staged.append([list(run) for run in labels])
            return flatten(labels)

        monkeypatch.setattr(compact_labels, "_flatten", spy)
        graph = random_graph(40, 300, 3)
        compact = build_compact_two_hop_cover(graph, max_hops=4)
        staged_in, staged_out = staged
        reordered = 0
        for offsets, pivots, dists, staging in (
            (compact._in_offsets, compact._in_pivots, compact._in_dists, staged_in),
            (compact._out_offsets, compact._out_pivots, compact._out_dists, staged_out),
        ):
            for node, keys in enumerate(staging):
                entries = [divmod(key, graph.num_nodes) for key in keys]
                lo, hi = offsets[node], offsets[node + 1]
                run = list(zip(dists[lo:hi], pivots[lo:hi]))
                assert run == sorted(entries), node
                reordered += run != entries
        assert reordered > 0

    @pytest.mark.parametrize(
        "max_hops, seed, digest",
        [
            (2, 7, "67a2c7390ad971f7eeb7b37cddc5a6075dae54856f4846677bd9403a1275eb79"),
            (4, 9, "291798b7187ce6bdf6fdc07f3cd37b57bb77820fb90e3533e00b5e17abc32be6"),
        ],
        ids=["H2", "H4"],
    )
    def test_buffers_match_recorded_build(self, max_hops, seed, digest):
        """sha256 of all eight buffers (native byte order), recorded from
        the build that pruned by merging label runs: the queries pin
        answers, this pins every stored entry."""
        compact = build_compact_two_hop_cover(random_graph(200, 1200, seed), max_hops)
        sha = hashlib.sha256()
        for buffer in _buffers(compact):
            sha.update(bytes(buffer))
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("max_hops", [2, 4])
    def test_a_saved_graph_builds_the_same_buffers(self, max_hops):
        """``graph_to_dict`` writes edges source-major, so a graph drawn in
        another order reloads with its followers reordered; the label runs
        are sorted by distance then rank, so the buffers do not move."""
        graph = random_graph(200, 1200, 7)
        again = graph_from_dict(json.loads(json.dumps(graph_to_dict(graph))))
        assert any(
            graph.in_neighbors(u) != again.in_neighbors(u)
            for u in range(graph.num_nodes)
        )
        assert [
            bytes(buffer)
            for buffer in _buffers(build_compact_two_hop_cover(graph, max_hops))
        ] == [
            bytes(buffer)
            for buffer in _buffers(build_compact_two_hop_cover(again, max_hops))
        ]


def _buffers(compact):
    return (
        compact._landmarks,
        compact._rank_of,
        compact._in_offsets,
        compact._in_pivots,
        compact._in_dists,
        compact._out_offsets,
        compact._out_pivots,
        compact._out_dists,
    )


def interleaved_script(graph, oracle, max_hops, seed):
    """``(method, source, target)`` calls in shuffled blocks: one source
    about many targets, two sources taking turns, one target from many
    sources, ``s == t`` / ``d = 1`` / ``d = H`` / unreachable pairs, and
    ``distance`` / ``exact_followee_set`` right after ``reachability``
    asked the same source about another target."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    by_distance = {}
    for s in nodes:
        for t in nodes:
            by_distance.setdefault(oracle.distance(s, t), []).append((s, t))
    source, target = rng.choice(nodes), rng.choice(nodes)
    a, b = rng.sample(nodes, 2)
    blocks = [
        [("reachability", source, t) for t in rng.sample(nodes, 10)],
        [("reachability", s, t) for t in rng.sample(nodes, 6) for s in (a, b)],
        [("reachability", s, target) for s in rng.sample(nodes, 10)],
    ]
    for d in (0.0, 1, max_hops, INF):
        blocks.append([("reachability", s, t) for s, t in rng.sample(by_distance[d], 5)])
    for s, t in rng.sample(by_distance[2] + by_distance[3], 8):
        blocks.append(
            [
                ("reachability", s, rng.choice(nodes)),
                ("distance", s, t),
                ("exact_followee_set", s, t),
            ]
        )
    rng.shuffle(blocks)
    return [call for block in blocks for call in block]


class TestQueryState:
    """The split and target memos carry work from one query to the next;
    no answer may depend on which queries came before it."""

    @staticmethod
    def replay(monkeypatch, seed, target_size, split_size, reset=False):
        """The interleaved script through one cover whose memos hold at
        most the given sizes (and, with ``reset``, are all emptied halfway,
        as evictions would): every answer equals a fresh cover's and the
        oracle's."""
        monkeypatch.setattr(compact_labels, "TARGET_MEMO_SIZE", target_size)
        monkeypatch.setattr(compact_labels, "SPLIT_MEMO_SIZE", split_size)
        graph = random_graph(60, 150, seed)
        oracle = build_two_hop_cover(graph, max_hops=4)
        cover = build_compact_two_hop_cover(graph, max_hops=4)
        script = interleaved_script(graph, oracle, 4, seed)
        hashed = 0
        for step, (method, s, t) in enumerate(script):
            if reset and step == len(script) // 2:
                cover._start_memos()
            got = getattr(cover, method)(s, t)
            fresh = getattr(build_compact_two_hop_cover(graph, max_hops=4), method)(s, t)
            if method == "reachability":
                want = oracle.reachability(s, t, exact_followees=True)
            else:
                want = getattr(oracle, method)(s, t)
            assert got == fresh == want, (method, s, t)
            assert type(got) is type(want), (method, s, t)
            assert len(cover._splits) <= split_size
            hashed += sum(type(split) is tuple for split in cover._splits.values())
        assert len(cover._targets) <= target_size
        if split_size > 2:
            assert hashed > 0

    @pytest.mark.parametrize("memo_size", [2, compact_labels.TARGET_MEMO_SIZE])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_long_lived_cover_answers_as_a_fresh_one(self, monkeypatch, memo_size, seed):
        self.replay(monkeypatch, seed, memo_size, compact_labels.SPLIT_MEMO_SIZE)

    @pytest.mark.parametrize("split_size", [2, compact_labels.SPLIT_MEMO_SIZE])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_split_memo_evictions_answer_as_a_fresh_one(
        self, monkeypatch, split_size, seed
    ):
        self.replay(
            monkeypatch, seed, compact_labels.TARGET_MEMO_SIZE, split_size, reset=True
        )

    def test_a_split_is_cut_once_a_turn_and_hashed_in_the_third(self):
        """A source's turn (its queries in a row) cuts its split and its
        followees' once; the memo counts the turns, and the third hashes
        them."""
        graph = random_graph(40, 200, 4)
        oracle = build_two_hop_cover(graph, max_hops=4)
        source = max(graph.nodes(), key=graph.out_degree)
        far = [t for t in graph.nodes() if 2 <= oracle.distance(source, t) < INF]
        cover = build_compact_two_hop_cover(graph, max_hops=4)
        for turns in range(1, compact_labels.CUT_TURNS + 1):
            cover.reachability(source, far[0])
            turn, cuts = cover._turn
            assert turn == source
            assert set(cuts) == {source, *graph.out_neighbors(source)}
            assert all(cover._splits[v] == turns for v in cuts)
            first = dict(cuts)
            cover.reachability(source, far[1])
            assert cover._turn[1] is cuts
            assert cuts.keys() == first.keys()
            assert all(cuts[v] is first[v] for v in cuts)
            cover.distance(far[0], source)
        cover.reachability(source, far[2])
        for v, cut in first.items():
            split = cover._splits[v]
            assert split[0] == cut[0] == cover._rank_of[v]
            assert all(type(hop) is frozenset for hop in split[1:])
            assert [sorted(hop) for hop in split[1:]] == [sorted(hop) for hop in cut[1:]]

    def test_threads_share_one_cover(self, monkeypatch):
        """8 threads, each asking its own sources about 7 targets in a row
        (Eq. 8's pattern), switching as often as the interpreter allows:
        every answer equals the single-threaded one, with a split memo
        that counts, hashes and clears under them."""
        monkeypatch.setattr(compact_labels, "TARGET_MEMO_SIZE", 16)
        monkeypatch.setattr(compact_labels, "SPLIT_MEMO_SIZE", 8)
        graph = random_graph(300, 1500, 5)
        pool = random.Random(5).sample(range(300), 40)
        scripts = []
        for seed in range(8):
            rng = random.Random(seed)
            scripts.append(
                [(s, t) for s in rng.choices(range(300), k=60) for t in rng.sample(pool, 7)]
            )
        single = build_compact_two_hop_cover(graph, max_hops=4)
        expected = [[single.reachability(s, t) for s, t in script] for script in scripts]
        shared = build_compact_two_hop_cover(graph, max_hops=4)
        answers = [None] * len(scripts)
        start = threading.Barrier(len(scripts))

        def run(k):
            start.wait()
            answers[k] = [shared.reachability(s, t) for s, t in scripts[k]]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(scripts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert answers == expected


class TestSerialization:
    def test_pickle_holds_the_buffers_only(self):
        """The memos are query state: a cover pickled after 1,000 queries
        is byte-equal to one pickled fresh, and its clone starts empty."""
        graph = random_graph(60, 300, 2)
        fresh = pickle.dumps(build_compact_two_hop_cover(graph, max_hops=4))
        used = build_compact_two_hop_cover(graph, max_hops=4)
        rng = random.Random(2)
        for _ in range(1_000):
            used.reachability(rng.randrange(60), rng.randrange(60))
        assert used._splits and used._targets
        assert pickle.dumps(used) == fresh
        clone = pickle.loads(fresh)
        assert clone._splits == clone._targets == {}
        assert clone._turn == (-1, {})

    def test_pickle_roundtrip_preserves_queries(self):
        graph = random_graph(30, 150, 7)
        compact = build_compact_two_hop_cover(graph, max_hops=4)
        clone = pickle.loads(pickle.dumps(compact))
        for s in graph.nodes():
            for t in graph.nodes():
                assert clone.distance(s, t) == compact.distance(s, t)
                assert clone.reachability(s, t) == compact.reachability(s, t)
        assert clone.label_bytes() == compact.label_bytes()


class TestLabelBytes:
    """Index-bytes reporting pinned against hand-computed layouts."""

    def test_compact_bytes_match_hand_computed_fixture(self, diamond_graph):
        """The documented layout formula on labels worked out by hand.

        Degree order is 0, 1, 2, 4, 3.  Landmark 0 follows 1, 2, 3 and
        reaches 4 in two hops: four in-entries.  Landmarks 1 and 2 each
        put an in-entry on 4 (two more); their backward searches meet 0 at
        the distance landmark 0's in-entries already give.  Landmark 4's
        backward search meets 1 and 2 at the distance their own in-entries
        on 4 give, and landmark 3's meets 0 likewise: no out-entry at all.
        """
        compact = build_compact_two_hop_cover(diamond_graph, max_hops=4)
        n, total_in, total_out = 5, 6, 0
        assert compact.num_label_entries() == total_in + total_out
        expected = (
            4 * n                  # landmark order (every node is one)
            + 4 * n                # node -> rank
            + 8 * (n + 1) * 2      # in/out offset arrays
            + 5 * total_in         # in pivots (4 B) + distances (1 B)
            + 5 * total_out        # out pivots + distances
        )
        assert expected == 166
        assert compact.label_bytes() == expected
        assert compact.size_bytes() == expected

    def test_dict_cover_bytes_count_every_container(self, diamond_graph):
        """No more bare ``getsizeof(dict)``: entries, tuples, followee
        sets, and int objects are all accounted for."""
        cover = build_two_hop_cover(diamond_graph, max_hops=4)
        int_size = sys.getsizeof(1 << 16)
        expected = 0
        for node in diamond_graph.nodes():
            lbl_in = cover.in_label(node)
            expected += sys.getsizeof(lbl_in) + 2 * int_size * len(lbl_in)
            lbl_out = cover.out_label(node)
            expected += sys.getsizeof(lbl_out)
            for _, entry in lbl_out.items():
                followees = entry[1]
                expected += 2 * int_size
                expected += sys.getsizeof(entry)
                expected += sys.getsizeof(followees) + int_size * len(followees)
        assert cover.label_bytes() == expected
        assert cover.size_bytes() == expected

    def test_compact_is_smaller_than_dict_cover(self):
        graph = random_graph(60, 500, 5)
        cover = build_two_hop_cover(graph, max_hops=4)
        compact = build_compact_two_hop_cover(graph, max_hops=4)
        assert compact.label_bytes() < cover.label_bytes() / 4


class TestScaleTier:
    """The smallest of Table 5's large rows
    (``benchmarks/test_table5_scale.py``), checked on every run."""

    @pytest.fixture(scope="class")
    def graph(self):
        return streaming_world_graph(
            StreamingWorldProfile(num_users=1_000, num_factions=8, seed=11)
        )

    def test_1k_compact_answers_as_the_oracle(self, graph):
        """The compact cover answers as the dict oracle on the tier's
        2,000 seeded pairs."""
        compact = build_compact_two_hop_cover(graph, DEFAULT_MAX_HOPS)
        oracle = build_two_hop_cover(graph, DEFAULT_MAX_HOPS)
        rng = random.Random(11 * 7_919 + 1_000)
        for _ in range(2_000):
            s, t = rng.randrange(1_000), rng.randrange(1_000)
            assert compact.distance(s, t) == oracle.distance(s, t), (s, t)
            assert compact.reachability(s, t) == oracle.reachability(
                s, t, exact_followees=True
            ), (s, t)

    def test_1k_one_pass_answers_as_per_target(self, graph):
        """The one-pass walk answers as the per-target walk from the 80
        busiest sources."""
        busiest = sorted(graph.nodes(), key=graph.out_degree, reverse=True)[:80]
        for s in busiest:
            assert weighted_reachability_from(
                graph, s, DEFAULT_MAX_HOPS
            ) == weighted_reachability_from_per_target(graph, s, DEFAULT_MAX_HOPS), s

    def test_1k_capped_memos_answer_as_a_fresh_cover(self, graph, monkeypatch):
        """Eq. 8's pattern over the 1k world — 300 mentions by 60 recurring
        authors, each asking about 7 of 100 targets in a row — through a
        long-lived cover whose memos clear many times: every answer equals
        a cover with empty memos."""
        monkeypatch.setattr(compact_labels, "TARGET_MEMO_SIZE", 32)
        monkeypatch.setattr(compact_labels, "SPLIT_MEMO_SIZE", 128)
        rng = random.Random(11)
        authors = rng.sample(range(1_000), 60)
        targets = rng.sample(range(1_000), 100)
        script = [
            (a, t) for a in rng.choices(authors, k=300) for t in rng.sample(targets, 7)
        ]
        cover = build_compact_two_hop_cover(graph, DEFAULT_MAX_HOPS)
        fresh = build_compact_two_hop_cover(graph, DEFAULT_MAX_HOPS)

        def afresh(method, s, t):
            fresh._start_memos()
            return getattr(fresh, method)(s, t)

        hashed = 0
        for s, t in script:
            for method in ("reachability", "exact_followee_set"):
                assert getattr(cover, method)(s, t) == afresh(method, s, t), (s, t)
            hashed += any(type(split) is tuple for split in cover._splits.values())
        assert hashed > 0
