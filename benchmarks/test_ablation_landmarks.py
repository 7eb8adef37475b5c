"""Ablation (DESIGN.md) — landmark ordering in the extended 2-hop cover.

Algorithm 2 line 1 sorts nodes by descending degree before labeling; on
hub-dominated follow graphs that choice is what keeps labels small (the
first few landmarks cover most shortest paths).  Expected shape: both
degree-based orders produce substantially smaller indexes and faster
builds than a random order; query results are identical (distances exact
under every order).  This ablation builds the paper's cover (the test
oracle), not the shipped one: ``order=`` exists only there, and the
shipped cover always takes landmarks by descending degree.
"""

import random
import time

from repro.eval.reporting import format_table
from repro.graph.generators import topical_social_graph
from repro.stream.generator import StreamProfile, TweetStreamGenerator
from repro.testing.oracles import build_two_hop_cover

ORDERS = ("degree", "coverage", "random")


def _follow_graph(num_users: int):
    generator = TweetStreamGenerator(
        stream_profile=StreamProfile(num_users=num_users)
    )
    interests, hubs = generator._make_users(8, random.Random(num_users))
    return topical_social_graph(interests, hubs, random.Random(num_users + 1))


def test_ablation_landmark_ordering(benchmark, report):
    graph = _follow_graph(500)
    rng = random.Random(3)
    pairs = [(rng.randrange(500), rng.randrange(500)) for _ in range(400)]

    rows = []
    entries = {}
    covers = {}
    for order in ORDERS:
        started = time.perf_counter()
        cover = build_two_hop_cover(graph, order=order, seed=1)
        build_s = time.perf_counter() - started
        covers[order] = cover
        entries[order] = cover.num_label_entries()
        rows.append(
            {
                "landmark order": order,
                "build (s)": round(build_s, 2),
                "label entries": cover.num_label_entries(),
                "entries/node": round(cover.num_label_entries() / 500, 1),
            }
        )
    report(
        "ablation_landmarks",
        format_table(rows, title="Ablation — 2-hop landmark ordering"),
    )

    benchmark(covers["degree"].reachability, 3, 7)

    # every order answers identically (distances exact regardless)
    for u, v in pairs:
        reference = covers["degree"].distance(u, v)
        for order in ORDERS[1:]:
            assert covers[order].distance(u, v) == reference
    # the paper's degree order beats random by a wide margin
    assert entries["degree"] < 0.7 * entries["random"]
    assert entries["coverage"] < 0.7 * entries["random"]
