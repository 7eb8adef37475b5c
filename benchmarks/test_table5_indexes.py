"""Table 5 — extended transitive closure vs extended 2-hop cover.

Paper columns per dataset: node/edge counts, degree stats, indexing time,
index size, and average weighted-reachability query time; the transitive
closure rows are blank ("-") on the largest graphs (out of time/memory).

Expected shape here: the closure answers queries fastest; the 2-hop cover
stores far fewer entries than the closure has nonzero cells; both agree
with the exact Eq.-4 definition.  Two reproduction caveats (EXPERIMENTS.md):
our incremental closure build is numpy-vectorized and therefore *faster*
than the pure-Python label construction, inverting the paper's build-time
column, and at laptop graph sizes the dense closure (3 bytes a pair) can
undercut the 2-hop labels in raw bytes even while storing many more entries.
"""

import random
import time

from repro.eval.reporting import format_table
from repro.graph.generators import SocialGraphConfig, topical_social_graph
from repro.graph.reachability import weighted_reachability
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.stream.generator import StreamProfile, TweetStreamGenerator
from repro.testing.oracles import build_two_hop_cover

#: Follow-graph sizes standing in for the D90..D10 / full-crawl rows.
SIZES = [("D90'", 200), ("D70'", 400), ("D50'", 700), ("D10'", 1200)]
NUM_QUERIES = 3000


def _follow_graph(num_users: int):
    generator = TweetStreamGenerator(
        stream_profile=StreamProfile(num_users=num_users)
    )
    interests, hubs = generator._make_users(8, random.Random(num_users))
    return topical_social_graph(
        interests, hubs, SocialGraphConfig(), random.Random(num_users + 1)
    )


def _query_pairs(num_nodes: int, rng: random.Random):
    return [
        (rng.randrange(num_nodes), rng.randrange(num_nodes))
        for _ in range(NUM_QUERIES)
    ]


def test_table5_index_comparison(benchmark, report):
    rows = []
    shape_checks = []
    for name, num_users in SIZES:
        graph = _follow_graph(num_users)
        stats = graph.stats()
        pairs = _query_pairs(num_users, random.Random(17))

        started = time.perf_counter()
        closure = build_transitive_closure_incremental(graph)
        closure_build = time.perf_counter() - started
        started = time.perf_counter()
        cover = build_two_hop_cover(graph)
        cover_build = time.perf_counter() - started

        started = time.perf_counter()
        for u, v in pairs:
            closure.reachability(u, v)
        closure_query = (time.perf_counter() - started) / NUM_QUERIES
        started = time.perf_counter()
        for u, v in pairs:
            cover.reachability(u, v)
        cover_query = (time.perf_counter() - started) / NUM_QUERIES

        rows.append(
            {
                "dataset": name,
                "#node": stats["nodes"],
                "#edge": stats["edges"],
                "avg deg": round(stats["avg_degree"], 1),
                "max deg": stats["max_degree"],
                "TC build(s)": round(closure_build, 2),
                "2hop build(s)": round(cover_build, 2),
                "TC entries": closure.nonzero_entries(),
                "2hop entries": cover.num_label_entries(),
                "TC query(µs)": round(closure_query * 1e6, 2),
                "2hop query(µs)": round(cover_query * 1e6, 2),
            }
        )
        shape_checks.append(
            (
                closure_query,
                cover_query,
                closure.nonzero_entries(),
                cover.num_label_entries(),
            )
        )
        # spot-check both indexes against the exact definition
        for u, v in pairs[:40]:
            exact = weighted_reachability(graph, u, v)
            assert closure.reachability(u, v) == exact
            assert cover.reachability(u, v, exact_followees=True) == exact

    report(
        "table5_indexes",
        format_table(rows, title="Table 5 — weighted reachability indexes"),
    )

    # benchmark: closure queries on the largest graph
    graph = _follow_graph(SIZES[-1][1])
    closure = build_transitive_closure_incremental(graph)
    benchmark(closure.reachability, 3, 7)

    for closure_query, cover_query, closure_entries, cover_entries in shape_checks:
        # closure queries are faster than label intersections
        assert closure_query < cover_query
        # the 2-hop cover stores fewer entries than the materialized closure
        assert cover_entries < closure_entries
