"""Table 5, large rows — the reachability index at the paper's scale.

Paper: Table 5 grows the follow graph up to the full 5M-user crawl and
leaves the transitive closure "-" where it cannot be built.  Here each
row is a seeded hub/faction streaming world (``StreamingWorldProfile``,
streamed in O(chunk) memory) of 1,000 / 50,000 / 500,000 users.  Per
tier: edges, tweets, the backend ``LinkerConfig`` dispatch selects, the
stream and build seconds, precise ``index_bytes``, entries per node and
query p50 / p99 over 2,000 seeded pairs.  At ≤ 2,000 users the compact
cover and the dict-backed oracle (Algorithm 2 + Theorem 2) are also
built, their bytes reported and their answers compared.

Expected shape: the closure ships at 1k users (3 B a pair); above that
the closure would be 3·|V|² bytes (7.5 GB at 50k users, 750 GB at 500k:
the paper's "-"), and the compact cover ships with entries per node
roughly flat in |V|, bytes linear in |V| and flat query times.  The
second table is the Fig. 5 inner loop on the 1k graph's 80 busiest
sources: the one-pass followee-mask walk against the per-target
DAG-walk oracle it replaced, answers ``==``.
"""

import os
import platform
import random
import time

from repro.config import DEFAULT_CONFIG
from repro.eval.reporting import format_table
from repro.graph.compact_labels import build_compact_two_hop_cover
from repro.graph.dispatch import build_reachability_index
from repro.graph.generators import (
    StreamingWorldProfile,
    stream_tweet_events,
    streaming_world_graph,
)
from repro.graph.reachability import weighted_reachability_from
from repro.obs.metrics import percentile
from repro.testing.oracles import (
    build_two_hop_cover,
    weighted_reachability_from_per_target,
)

TIERS = (1_000, 50_000, 500_000)
SEED = 11
#: Reachability queries sampled per tier for the latency percentiles.
NUM_QUERIES = 2_000
#: Tiers up to this size also build the compact cover and the dict oracle
#: and compare them; above it the dict cover's RAM defeats the run.
IDENTITY_CAP = 2_000
#: A compact index over this many bytes fails the run; nothing is pruned.
BUDGET_BYTES = 2**30
#: Sources of the one-pass vs per-target row: the busiest, since the
#: linker asks reachability *from* active users.
BUSIEST_SOURCES = 80


def _profile(users: int) -> StreamingWorldProfile:
    """Factions grow with users, so faction size (the main driver of
    label width in this topology) stays bounded."""
    return StreamingWorldProfile(
        num_users=users, num_factions=max(8, users // 125), seed=SEED
    )


def _pairs(users: int):
    rng = random.Random(SEED * 7_919 + users)
    return [(rng.randrange(users), rng.randrange(users)) for _ in range(NUM_QUERIES)]


def _tier(users: int):
    """One row of the table, the tier's graph and its index."""
    profile = _profile(users)
    started = time.perf_counter()
    graph = streaming_world_graph(profile)
    tweets = sum(1 for _ in stream_tweet_events(profile))
    stream_s = time.perf_counter() - started

    backend = DEFAULT_CONFIG.select_index_backend(graph.num_nodes)
    started = time.perf_counter()
    index = build_reachability_index(graph, DEFAULT_CONFIG)
    build_s = time.perf_counter() - started
    entries = (
        index.num_label_entries() if backend == "compact" else index.nonzero_entries()
    )

    pairs = _pairs(users)
    latencies = []
    for source, target in pairs:
        begin = time.perf_counter()
        index.reachability(source, target)
        latencies.append(time.perf_counter() - begin)

    compact_build_s = compact_bytes = dict_cover_bytes = "-"
    identical = None
    if users <= IDENTITY_CAP:
        started = time.perf_counter()
        compact = build_compact_two_hop_cover(graph, DEFAULT_CONFIG.max_hops)
        compact_build_s = round(time.perf_counter() - started, 3)
        oracle = build_two_hop_cover(graph, DEFAULT_CONFIG.max_hops)
        compact_bytes = compact.size_bytes()
        dict_cover_bytes = oracle.size_bytes()
        identical = all(
            compact.distance(s, t) == oracle.distance(s, t)
            and compact.reachability(s, t)
            == oracle.reachability(s, t, exact_followees=True)
            for s, t in pairs
        )
    elif backend == "compact":
        compact_build_s, compact_bytes = round(build_s, 3), index.size_bytes()

    row = {
        "users": users,
        "factions": profile.num_factions,
        "#edge": graph.num_edges,
        "#tweet": tweets,
        "backend": backend,
        "stream(s)": round(stream_s, 3),
        "build(s)": round(build_s, 3),
        "index_bytes": index.size_bytes(),
        "entries/node": round(entries / users, 3),
        "query p50(µs)": round(percentile(latencies, 50.0) * 1e6, 3),
        "query p99(µs)": round(percentile(latencies, 99.0) * 1e6, 3),
        "compact build(s)": compact_build_s,
        "compact bytes": compact_bytes,
        "dict cover bytes": dict_cover_bytes,
        "== oracle": "n/a" if identical is None else "yes" if identical else "NO",
    }
    return row, graph, index


def _one_pass_row(graph):
    sources = sorted(graph.nodes(), key=graph.out_degree, reverse=True)
    sources = sources[:BUSIEST_SOURCES]
    hops = DEFAULT_CONFIG.max_hops
    started = time.perf_counter()
    per_target = [
        weighted_reachability_from_per_target(graph, s, hops) for s in sources
    ]
    per_target_s = time.perf_counter() - started
    started = time.perf_counter()
    one_pass = [weighted_reachability_from(graph, s, hops) for s in sources]
    one_pass_s = time.perf_counter() - started
    return {
        "graph": f"{graph.num_nodes} users",
        "sources": len(sources),
        "per-target(s)": round(per_target_s, 4),
        "one-pass(s)": round(one_pass_s, 4),
        "speedup": round(per_target_s / one_pass_s, 2),
        "outputs": "==" if one_pass == per_target else "DIFFER",
    }


def test_table5_scale(benchmark, report):
    rows, one_pass = [], None
    for users in TIERS:
        row, graph, index = _tier(users)
        rows.append(row)
        if one_pass is None:
            one_pass = _one_pass_row(graph)
        del graph  # the largest tier's index stays for the benchmark

    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    report(
        "table5_scale",
        "\n\n".join(
            [
                format_table(
                    rows,
                    title=f"Table 5 (large rows) — streaming worlds, seed {SEED}, "
                    f"{NUM_QUERIES} seeded query pairs per tier",
                ),
                format_table(
                    [one_pass],
                    title="One-pass vs per-target reachability (busiest sources)",
                ),
                f"python {platform.python_version()}, {platform.system().lower()}, "
                f"{cpus} CPUs",
            ]
        ),
    )

    # benchmark: one compact query on the largest tier
    source, target = _pairs(TIERS[-1])[0]
    benchmark(index.reachability, source, target)

    # the compact cover answers as the oracle wherever both are built
    assert [row["== oracle"] for row in rows] == ["yes", "n/a", "n/a"]
    # every tier has a compact cover, and none outgrows the budget
    assert all(row["compact bytes"] <= BUDGET_BYTES for row in rows)
    # the one-pass walk answers as the per-target oracle
    assert one_pass["outputs"] == "=="
