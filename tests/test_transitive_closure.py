"""Extended transitive closure: incremental vs exact vs the naive oracle (Algorithm 1)."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import transitive_closure
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
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

    def test_random_graph(self):
        graph = random_graph(25, 80, seed=3)
        closure = build_transitive_closure_incremental(graph)
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
        graph = DiGraph(num_nodes, edges)
        closure = build_transitive_closure_incremental(graph, max_hops=4)
        assert_closure_matches_exact(graph, closure, 4)

    def test_wide_hub(self):
        """Node 0 follows 1..300, and each of them follows 301, so
        ``|F_uv| = 300`` for (0, 301): more than a byte can tally."""
        graph = DiGraph(
            302, [(0, f) for f in range(1, 301)] + [(f, 301) for f in range(1, 301)]
        )
        closure = build_transitive_closure_incremental(graph, max_hops=2)
        assert closure._count[301] == 300
        assert closure._count.format == "H"  # uint16: past a byte, not past two
        assert_closure_matches_exact(graph, closure, 2)


def build_tiled(graph, tile, max_hops=4):
    """The closure built with ``tile``-wide tiles instead of the shipped edge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transitive_closure, "TILE", tile)
        return build_transitive_closure_incremental(graph, max_hops=max_hops)


def assert_diagonal_clear(closure):
    """No ``u -> ... -> u`` cycle is stored: both diagonal bytes stay 0."""
    n = closure.num_nodes
    assert all(closure._dist[u * n + u] == 0 for u in range(n))
    assert all(closure._count[u * n + u] == 0 for u in range(n))


@pytest.mark.parametrize("tile", [1, 2, 7])
class TestTileSeams:
    """Tier-1 graphs fit in one shipped tile, so these shrink the tile until
    the build crosses row seams, ragged last tile included."""

    @given(edge_list_strategy())
    @settings(max_examples=40, deadline=None)
    def test_property_random_graphs(self, tile, spec):
        num_nodes, edges = spec
        graph = DiGraph(num_nodes, edges)
        closure = build_tiled(graph, tile)
        assert_closure_matches_exact(graph, closure, 4)
        assert_diagonal_clear(closure)

    def test_random_graph(self, tile):
        graph = random_graph(25, 80, seed=3)
        closure = build_tiled(graph, tile)
        assert_closure_matches_exact(graph, closure, 4)
        assert_diagonal_clear(closure)

    @pytest.mark.parametrize("max_hops", [1, 2, 3])
    def test_hop_horizons(self, tile, max_hops):
        graph = random_graph(15, 40, seed=7)
        closure = build_tiled(graph, tile, max_hops=max_hops)
        assert_closure_matches_exact(graph, closure, max_hops)

    @pytest.mark.parametrize("num_nodes", [0, 1])
    def test_no_pairs(self, tile, num_nodes):
        closure = build_tiled(DiGraph(num_nodes), tile)
        assert closure.nonzero_entries() == 0
        # 2 B a pair (no followee, so a uint8 count) plus a degree slot
        assert closure.size_bytes() == 2 * num_nodes**2 + 8 * num_nodes
        assert_diagonal_clear(closure)

    def test_rows_with_zero_out_degree(self, tile):
        """Sinks 2, 4, 6, 7 and 8 have no followee slot, so some row tiles
        sum nothing in."""
        graph = DiGraph(9, [(0, 1), (1, 2), (3, 4), (5, 0), (5, 3)])
        closure = build_tiled(graph, tile)
        assert_closure_matches_exact(graph, closure, 4)
        for sink in (2, 4, 6, 7, 8):
            assert all(closure.reachability(sink, t) == 0.0 for t in range(9))

    def test_mixed_degree_rows_in_one_tile(self, tile):
        """Out-degrees 0 3 1 0 2 4 0 1 2 0: each tile sorts its rows by
        degree to slice its followee slots, and every row's tally must
        land back on its own index, sinks included."""
        graph = DiGraph(
            10,
            [(1, 2), (1, 5), (1, 8), (2, 6), (4, 1), (4, 9), (5, 0), (5, 3)]
            + [(5, 7), (5, 2), (7, 4), (8, 5), (8, 7)],
        )
        closure = build_tiled(graph, tile)
        assert_closure_matches_exact(graph, closure, 4)
        assert_diagonal_clear(closure)

    def test_reach_saturates_before_max_hops(self, tile):
        """On a 5-cycle every pair is set by hop 4; hop 5 finds nothing
        fresh and the build stops instead of running to hop 255."""
        graph = DiGraph(5, [(u, (u + 1) % 5) for u in range(5)])
        hops = []
        iterate = transitive_closure._iterate

        def spy(*args):
            grew = iterate(*args)
            hops.append((args[-1], grew))
            return grew

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transitive_closure, "_iterate", spy)
            closure = build_tiled(graph, tile, max_hops=255)
        assert hops == [(2, True), (3, True), (4, True), (5, False)]
        assert_closure_matches_exact(graph, closure, 255)
        assert_diagonal_clear(closure)


#: Graphs whose buffers are pinned below: the first spans three shipped
#: tiles, the last one ragged (512 + 512 + 76).
RECORDED_GRAPHS = {
    "1100-nodes-H4": (lambda: random_digraph(1100, 9000, random.Random(11)), 4),
    "300-nodes-H6": (lambda: random_digraph(300, 600, random.Random(7)), 6),
}


class TestRecordedBuild:
    @pytest.mark.parametrize(
        "graph, dist_digest, count_digest",
        [
            (
                "1100-nodes-H4",
                "7d15440ce8ea9768e27d94d20d9acee8ff41c78d45867a8e597202d656a5f2e2",
                "f0ba722b53862c6daa183613744d529852338382d6be042eb402d73615494a30",
            ),
            (
                "300-nodes-H6",
                "8323133798ef6aac00767042ea68ee0270875c525d5e95d99371d432ec8c8e85",
                "cd81bf5464163d4495ed944427fba67fdd5a01fae4536188e51143e7c3352ea1",
            ),
        ],
    )
    def test_buffers_match_recorded_build(self, graph, dist_digest, count_digest):
        """sha256 of the distance buffer and of the counts widened to
        ``uint16`` (native byte order), recorded from the untiled build when
        every count was stored that wide: the queries pin answers, this pins
        every stored value.  Both graphs' out-degrees fit a byte, so the
        counts are stored as ``uint8``."""
        make, max_hops = RECORDED_GRAPHS[graph]
        closure = build_transitive_closure_incremental(make(), max_hops=max_hops)
        assert closure._count.format == "B"
        counts = np.frombuffer(closure._count, dtype=np.uint8).astype(np.uint16)
        assert hashlib.sha256(bytes(closure._dist)).hexdigest() == dist_digest
        assert hashlib.sha256(counts.tobytes()).hexdigest() == count_digest

    def test_build_peak_is_the_index_plus_four_row_tiles(self):
        """numpy reports its buffers to tracemalloc.  Past the index, the
        build holds four ``TILE x |V|`` row tiles (the gathered followee
        rows, their hit mask, the degree-sorted tally and its unsorted
        copy, each at most 4 B a cell) and arrays of ``|E|`` followees;
        the bound below is twelve bytes a tile cell.  A build with a
        ``|V| x |V|`` temporary anywhere is over it."""
        make, max_hops = RECORDED_GRAPHS["1100-nodes-H4"]
        graph = make()
        operand_bytes = 4 * transitive_closure.TILE * graph.num_nodes
        assert graph.num_nodes > 2 * transitive_closure.TILE
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            closure = build_transitive_closure_incremental(graph, max_hops=max_hops)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= closure.size_bytes() + 3 * operand_bytes


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
    def test_nonzero_entries_counts(self, chain_graph):
        closure = build_transitive_closure_incremental(chain_graph, max_hops=4)
        assert closure.nonzero_entries() == 4 + 3 + 2 + 1

    def test_size_bytes_positive(self, diamond_graph):
        assert build_transitive_closure_incremental(diamond_graph).size_bytes() > 0

    @pytest.mark.parametrize("followees, pair_bytes", [(255, 2), (256, 3)])
    def test_dense_size_is_a_pair_in_the_narrowest_count_plus_degrees(
        self, followees, pair_bytes
    ):
        """A ``uint8`` distance per pair and a count in the narrowest type
        that holds the largest out-degree: 2 B a pair while it is <= 255,
        3 B past it; one list slot per out-degree."""
        nodes = followees + 1
        graph = DiGraph(nodes, [(0, f) for f in range(1, nodes)])
        closure = build_transitive_closure_incremental(graph)
        assert closure.size_bytes() == pair_bytes * nodes * nodes + 8 * nodes


class TestExactFolloweeSet:
    def test_diamond(self, diamond_graph):
        assert exact_followee_set(diamond_graph, 0, 4) == {1, 2}

    def test_unreachable(self, diamond_graph):
        assert exact_followee_set(diamond_graph, 3, 0) == set()
