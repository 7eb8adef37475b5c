"""Fig. 5(b) — naive vs incremental transitive-closure pre-computation.

Paper (log scale): the incremental Algorithm 1 builds the weighted
reachability closure orders of magnitude faster than the naive per-pair BFS
(which cannot finish within a day on the larger datasets; the paper's
largest finishes in <20 min with the incremental method).  Expected shape:
incremental ≪ naive at every size, with the gap widening — naive is
O(|V|²·|E|) vs O(H·|V|²).
"""

import random
import time

from repro.eval.reporting import format_table
from repro.graph.generators import random_digraph
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.testing.oracles import build_transitive_closure_naive

#: (num_nodes, num_edges): naive is only feasible on the small ones.
SIZES = [(30, 120), (60, 300), (120, 700), (240, 1700), (480, 4000)]
#: Beyond this node count the naive builder is skipped (paper: "we omit
#: results of index construction that cannot be finished within one day").
NAIVE_LIMIT = 120


def test_fig5b_closure_construction(benchmark, report):
    rows = []
    speedups = []
    for num_nodes, num_edges in SIZES:
        graph = random_digraph(num_nodes, num_edges, random.Random(num_nodes))
        started = time.perf_counter()
        incremental = build_transitive_closure_incremental(graph)
        incremental_s = time.perf_counter() - started
        if num_nodes <= NAIVE_LIMIT:
            started = time.perf_counter()
            naive = build_transitive_closure_naive(graph)
            naive_s = time.perf_counter() - started
            speedups.append(naive_s / max(incremental_s, 1e-9))
            # both builders must agree
            for u in range(0, num_nodes, 7):
                for v in range(0, num_nodes, 5):
                    assert naive.reachability(u, v) == incremental.reachability(u, v)
            naive_cell = f"{naive_s:.3f}"
        else:
            naive_cell = "-"
        rows.append(
            {
                "nodes": num_nodes,
                "edges": num_edges,
                "naive (s)": naive_cell,
                "incremental (s)": f"{incremental_s:.3f}",
            }
        )
    report(
        "fig5b_tc_build",
        format_table(rows, title="Fig 5(b) — transitive closure construction time"),
    )

    # benchmark the incremental builder on the mid-size graph
    graph = random_digraph(240, 1700, random.Random(240))
    benchmark.pedantic(
        build_transitive_closure_incremental, args=(graph,), rounds=3, iterations=1
    )

    # shape: the incremental algorithm dominates and the gap widens
    assert all(s > 3.0 for s in speedups), speedups
    assert speedups[-1] > speedups[0]
