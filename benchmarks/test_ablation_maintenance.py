"""Ablation (DESIGN.md) — incremental closure maintenance vs full rebuild.

The followee-follower network changes continuously; the paper's abstract
promises incremental algorithms for the *maintenance* cost too, and its
transitive closure lives on disk (Sec. 2), where writes dominate.  This
bench streams follow events into :class:`DynamicTransitiveClosure` and
measures how much of the index one event actually touches: a backward BFS
bounds the candidate sources, a path-length lower bound proves most of
them unchanged, and only the rest are rewritten.

Expected shape: one follow event rewrites a small fraction of the index
rows (vs 100% for a rebuild), the skip test discharges a meaningful share
of the BFS candidates, and the repaired index is bit-for-bit equal to a
from-scratch rebuild.  Wall-clock is reported but not asserted: the
from-scratch rebuild is numpy-vectorized and wins on CPU at laptop graph
sizes (same caveat as Table 5's build column, see EXPERIMENTS.md).
"""

import random
import time

from repro.eval.reporting import format_table
from repro.graph.dynamic import DynamicTransitiveClosure
from repro.graph.generators import SocialGraphConfig, topical_social_graph
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.stream.generator import StreamProfile, TweetStreamGenerator

NUM_EVENTS = 30


def _follow_graph(num_users: int):
    generator = TweetStreamGenerator(
        stream_profile=StreamProfile(num_users=num_users)
    )
    interests, hubs = generator._make_users(8, random.Random(num_users))
    return topical_social_graph(
        interests, hubs, SocialGraphConfig(), random.Random(num_users + 1)
    )


def test_ablation_incremental_maintenance(benchmark, report):
    rows = []
    touched_fractions = []
    discharge_rates = []
    for num_users in (200, 400, 800):
        graph = _follow_graph(num_users)
        dynamic = DynamicTransitiveClosure(graph)
        rng = random.Random(23)
        events = []
        while len(events) < NUM_EVENTS:
            u, v = rng.randrange(num_users), rng.randrange(num_users)
            if u != v and not graph.has_edge(u, v):
                events.append((u, v))

        started = time.perf_counter()
        for u, v in events:
            dynamic.add_edge(u, v)
        repair_ms = (time.perf_counter() - started) / NUM_EVENTS * 1e3

        started = time.perf_counter()
        rebuilt = build_transitive_closure_incremental(dynamic.graph)
        rebuild_ms = (time.perf_counter() - started) * 1e3

        # the repaired index must equal the from-scratch rebuild
        check = random.Random(5)
        for _ in range(300):
            u, v = check.randrange(num_users), check.randrange(num_users)
            assert dynamic.reachability(u, v) == rebuilt.reachability(u, v)

        touched = dynamic.rows_recomputed / NUM_EVENTS
        candidates = touched + dynamic.rows_skipped / NUM_EVENTS
        touched_fractions.append(touched / num_users)
        discharge_rates.append(
            dynamic.rows_skipped / (dynamic.rows_skipped + dynamic.rows_recomputed)
        )
        rows.append(
            {
                "users": num_users,
                "rows written/event": round(touched, 1),
                "index written": f"{touched / num_users:.1%}",
                "skip-test discharge": f"{dynamic.rows_skipped / max(dynamic.rows_skipped + dynamic.rows_recomputed, 1):.1%}",
                "BFS candidates/event": round(candidates, 1),
                "repair ms/event": round(repair_ms, 2),
                "rebuild ms": round(rebuild_ms, 2),
            }
        )
    report(
        "ablation_maintenance",
        format_table(rows, title="Ablation — closure maintenance vs rebuild"),
    )

    graph = _follow_graph(200)
    dynamic = DynamicTransitiveClosure(graph)
    benchmark.pedantic(dynamic.add_edge, args=(7, 151), rounds=1, iterations=1)

    # shape: one event rewrites a small fraction of the index ...
    assert all(fraction < 0.35 for fraction in touched_fractions)
    # ... and the write fraction shrinks as the graph grows
    assert touched_fractions[-1] < touched_fractions[0]
    # the skip test discharges a meaningful share of the BFS candidates
    assert all(rate > 0.2 for rate in discharge_rates)
