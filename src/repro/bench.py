"""``repro bench`` — the scale tool.

Latency is measured by ``perfbench/`` (BENCHMARK.json: end-to-end and
per-layer numbers, judged against a same-box parent run with every
decision checked).  This command keeps the two measurements perfbench
does not take and writes them as a **schema-stable**
``BENCH_linking.json``:

* ``scale`` — streaming-world tiers (1k / 50k / 500k users by default):
  per tier, the backend ``LinkerConfig`` dispatch selects, its build
  time, **index bytes** (precise ``label_bytes``, not ``getsizeof``
  underestimates), reachability-query percentiles, and — at small
  tiers — a compact-vs-oracle identity gate (docs/scaling.md);
* ``reachability`` — on the smallest measured tier's graph, the
  one-pass followee-mask propagation vs. the per-target DAG-walk oracle
  it replaced (the Fig. 5 inner loop), with an output-equality check.

The workload is fully determined by ``seed``/``tiers``.  Wall-clock
values are measurements, not constants: the schema validator checks
shape and types, never magnitudes.  The two facts that *are* gated — a
compact cover that diverged from the dict-backed oracle, an index over
its memory budget — are :func:`scale_gate_errors`; ``repro bench`` exits
1 on either.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULT_CONFIG
from repro.graph.compact_labels import build_compact_two_hop_cover
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.graph.generators import (
    StreamingWorldProfile,
    stream_tweet_events,
    streaming_world_graph,
)
from repro.graph.reachability import weighted_reachability_from
from repro.log import get_logger
from repro.obs.metrics import percentile
from repro.schema import BOOL, COUNT, INT, REAL, STR, ListOf, const, nullable, problems
from repro.testing.oracles import (
    build_two_hop_cover,
    weighted_reachability_from_per_target,
)

_log = get_logger(__name__)

SCHEMA_VERSION = 6

#: One scale tier row; :func:`scale_gate_errors` branches on
#: ``outputs_identical`` and ``within_budget``.
_SCALE_TIER = {
    "users": COUNT,
    "factions": COUNT,
    "edges": COUNT,
    "tweets": COUNT,
    "backend": STR,
    "stream_s": REAL,
    "index_build_s": REAL,
    "index_bytes": COUNT,
    "entries_per_node": REAL,
    "queries": COUNT,
    "query_p50_us": REAL,
    "query_p99_us": REAL,
    "compact_build_s": nullable(REAL),
    "compact_bytes": nullable(COUNT),
    "dict_cover_bytes": nullable(COUNT),
    "outputs_identical": nullable(BOOL),
    "memory_budget_bytes": COUNT,
    "within_budget": BOOL,
}
#: ``run_bench`` refuses to write a document that fails this shape.
_BENCH_DOCUMENT = {
    "meta": {
        "schema_version": const(SCHEMA_VERSION),
        "tool": STR,
        "seed": INT,
        "tiers_measured": ListOf(COUNT, non_empty=True),
    },
    "environment": {"python": STR, "platform": STR, "cpu_count": nullable(COUNT)},
    "reachability": {
        "sources": COUNT,
        "per_target_s": REAL,
        "one_pass_s": REAL,
        "speedup": REAL,
        "outputs_identical": BOOL,
    },
    "scale": {"tiers": ListOf(_SCALE_TIER, non_empty=True)},
}


def validate_bench_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    return problems(doc, _BENCH_DOCUMENT)


def scale_gate_errors(document: Dict) -> List[str]:
    """One message per tier of a valid document that failed a scale gate:
    its compact cover diverged from the dict-backed oracle, or its index
    outgrew the memory budget.  ``repro bench`` exits 1 when any is
    returned; ``outputs_identical`` is ``None`` (not gated) above the
    identity cap."""
    errors: List[str] = []
    for row in document["scale"]["tiers"]:
        reasons = []
        if row["outputs_identical"] is False:
            reasons.append(
                "compact cover diverged from the dict-backed cover "
                "(outputs_identical is false)"
            )
        if row["within_budget"] is False:
            reasons.append(
                f"index_bytes {row['index_bytes']} exceeded the "
                f"{row['memory_budget_bytes']}-byte budget"
            )
        if reasons:
            errors.append(f"scale tier {row['users']}: " + "; ".join(reasons))
    return errors


# ---------------------------------------------------------------------- #
# one-pass vs per-target reachability
# ---------------------------------------------------------------------- #

#: Sources timed by the reachability row.
_REACHABILITY_SOURCES = 80


def _reachability_bench(graph: DiGraph, max_hops: int) -> Dict:
    # the busiest sources are the expensive (and the realistic) ones: the
    # linker queries reachability *from* active users
    sources = sorted(
        graph.nodes(), key=graph.out_degree, reverse=True
    )[:_REACHABILITY_SOURCES]
    start = time.perf_counter()
    baseline = [
        weighted_reachability_from_per_target(graph, s, max_hops) for s in sources
    ]
    per_target_s = time.perf_counter() - start
    start = time.perf_counter()
    one_pass = [weighted_reachability_from(graph, s, max_hops) for s in sources]
    one_pass_s = time.perf_counter() - start
    identical = baseline == one_pass
    return {
        "sources": len(sources),
        "per_target_s": round(per_target_s, 6),
        "one_pass_s": round(one_pass_s, 6),
        "speedup": round(per_target_s / one_pass_s, 3) if one_pass_s > 0 else 0.0,
        "outputs_identical": identical,
    }


# ---------------------------------------------------------------------- #
# scale tiers
# ---------------------------------------------------------------------- #

#: Node count up to which a tier *additionally* builds the compact cover
#: and the dict-backed oracle and compares what ships — ``distance`` and
#: exact-followee ``reachability`` (the identity gate).  Above this, the
#: dict cover's build cost and RAM defeat the point of the tier run;
#: identity at scale is covered by the randomized property suite instead.
_SCALE_IDENTITY_CAP = 2_000

#: Per-index memory budget a tier's index is checked against
#: (``within_budget``; docs/scaling.md).  Nothing is pruned to meet it: a
#: compact index over 1 GiB fails the gate.
_SCALE_BUDGET_BYTES = 2**30

#: Reachability queries sampled per tier for the latency percentiles.
_SCALE_QUERY_COUNT = 2_000


def scale_tier_profile(users: int, seed: int) -> StreamingWorldProfile:
    """The hub/faction streaming world a tier benchmarks.

    Factions scale with the user count so the faction size — the main
    driver of 2-hop label width in this topology — stays bounded instead
    of growing into a |faction|² mesh.
    """
    return StreamingWorldProfile(
        num_users=users,
        num_factions=max(8, users // 125),
        seed=seed,
    )


def _scale_tier_bench(users: int, seed: int) -> Dict:
    """Benchmark one streaming-world tier end to end.

    Streams the world in (never materializing the full edge list),
    builds whatever backend ``LinkerConfig`` dispatch selects for the
    size, and reports build seconds, **precise** index bytes, and query
    percentiles.  At small tiers the compact cover and the dict-backed
    oracle are both built and compared — the identity gate
    :func:`scale_gate_errors` enforces.
    """
    profile = scale_tier_profile(users, seed)
    start = time.perf_counter()
    graph = streaming_world_graph(profile)
    tweets = sum(1 for _ in stream_tweet_events(profile))
    stream_s = time.perf_counter() - start

    start = time.perf_counter()
    index = build_reachability_index(graph, DEFAULT_CONFIG)
    index_build_s = time.perf_counter() - start
    backend = DEFAULT_CONFIG.select_index_backend(graph.num_nodes)
    index_bytes = index.size_bytes()
    entries = (
        index.num_label_entries()
        if hasattr(index, "num_label_entries")
        else index.nonzero_entries()
    )

    rng = random.Random(seed * 7_919 + users)
    pairs = [
        (rng.randrange(users), rng.randrange(users))
        for _ in range(_SCALE_QUERY_COUNT)
    ]
    latencies: List[float] = []
    for source, target in pairs:
        begin = time.perf_counter()
        index.reachability(source, target)
        latencies.append(time.perf_counter() - begin)

    compact_build_s: Optional[float] = None
    compact_bytes: Optional[int] = None
    dict_cover_bytes: Optional[int] = None
    identical: Optional[bool] = None
    if users <= _SCALE_IDENTITY_CAP:
        start = time.perf_counter()
        compact = build_compact_two_hop_cover(graph, max_hops=DEFAULT_CONFIG.max_hops)
        compact_build_s = round(time.perf_counter() - start, 6)
        dict_cover = build_two_hop_cover(graph, max_hops=DEFAULT_CONFIG.max_hops)
        compact_bytes = compact.label_bytes()
        dict_cover_bytes = dict_cover.label_bytes()
        identical = all(
            compact.distance(s, t) == dict_cover.distance(s, t)
            and compact.reachability(s, t)
            == dict_cover.reachability(s, t, exact_followees=True)
            for s, t in pairs
        )
    elif backend == "compact":
        compact_build_s = round(index_build_s, 6)
        compact_bytes = index_bytes

    return {
        "users": users,
        "factions": profile.num_factions,
        "edges": graph.num_edges,
        "tweets": tweets,
        "backend": backend,
        "stream_s": round(stream_s, 6),
        "index_build_s": round(index_build_s, 6),
        "index_bytes": index_bytes,
        "entries_per_node": round(entries / users, 3),
        "queries": len(latencies),
        "query_p50_us": round(percentile(latencies, 50.0) * 1e6, 3),
        "query_p99_us": round(percentile(latencies, 99.0) * 1e6, 3),
        "compact_build_s": compact_build_s,
        "compact_bytes": compact_bytes,
        "dict_cover_bytes": dict_cover_bytes,
        "outputs_identical": identical,
        "memory_budget_bytes": _SCALE_BUDGET_BYTES,
        "within_budget": backend != "compact" or index_bytes <= _SCALE_BUDGET_BYTES,
    }


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def run_bench(
    seed: int = 11,
    tiers: Optional[Sequence[int]] = None,
    out: Optional[str] = "BENCH_linking.json",
) -> Dict:
    """Measure ``tiers`` (streaming-world user counts; ``None`` means
    1k / 50k / 500k) and the reachability row; returns (and optionally
    writes) the document.

    Neither resets ``METRICS`` nor switches its timing: a run inside a
    larger process leaves that process's instrumentation alone.
    """
    if tiers is None:
        tiers = (1_000, 50_000, 500_000)
    if not tiers or any(t < 1 for t in tiers):
        raise ValueError("tiers must be a non-empty list of positive user counts")
    rows = []
    for users in tiers:
        _log.info("scale tier: %d users", users)
        rows.append(_scale_tier_bench(users, seed))
    reachability = _reachability_bench(
        streaming_world_graph(scale_tier_profile(min(tiers), seed)),
        DEFAULT_CONFIG.max_hops,
    )
    document = {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "tool": "repro bench",
            "seed": seed,
            "tiers_measured": list(tiers),
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.system().lower(),
            "cpu_count": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
        },
        "reachability": reachability,
        "scale": {"tiers": rows},
    }
    invalid = validate_bench_document(document)
    if invalid:  # pragma: no cover - guards future schema drift
        raise AssertionError(f"bench emitted an invalid document: {invalid}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        _log.info("benchmark written to %s", out)
    return document
