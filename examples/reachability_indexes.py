#!/usr/bin/env python3
"""Weighted-reachability index trade-offs on a synthetic follow graph.

``build_reachability_index`` is how the library obtains an index: the
extended transitive closure (Algorithm 1) up to ``CLOSURE_MAX_NODES``
users, the compact 2-hop cover (distance labels + Theorem 1) above.  This
script forces each backend over the same follow network and reports
the Table-5 trade-off: the closure answers queries fastest, the 2-hop
cover is what still fits when |V|² does not; both agree with exact
per-pair BFS.

Run:  python examples/reachability_indexes.py
"""

import random
import time

from repro.config import LinkerConfig
from repro.graph import build_reachability_index, weighted_reachability
from repro.graph.generators import topical_social_graph
from repro.stream.generator import StreamProfile, TweetStreamGenerator


def main() -> None:
    # a follow graph with topical hubs, like the experiments use
    generator = TweetStreamGenerator(stream_profile=StreamProfile(num_users=800))
    interests, hubs = generator._make_users(8, random.Random(1))
    graph = topical_social_graph(interests, hubs, random.Random(2))
    stats = graph.stats()
    print(f"follow graph: {stats['nodes']} users, {stats['edges']} edges, "
          f"max degree {stats['max_degree']}")
    print(f"auto dispatch at this size: "
          f"{LinkerConfig().select_index_backend(graph.num_nodes)}")

    rng = random.Random(7)
    pairs = [(rng.randrange(800), rng.randrange(800)) for _ in range(20_000)]

    print(f"\n{'index':20s} {'build':>9s} {'size':>10s} {'query':>10s}")
    indexes = {}
    for backend in ("closure", "compact"):
        started = time.perf_counter()
        index = build_reachability_index(graph, LinkerConfig(index_backend=backend))
        build = time.perf_counter() - started
        started = time.perf_counter()
        for u, v in pairs:
            index.reachability(u, v)
        query = (time.perf_counter() - started) / len(pairs)
        indexes[backend] = index
        print(f"{backend:20s} {build:8.2f}s "
              f"{index.size_bytes() / 1e6:8.1f}MB {query * 1e6:8.2f}µs")

    # agreement spot-check against exact BFS (Eq. 4)
    mismatches = 0
    for u, v in pairs[:200]:
        exact = weighted_reachability(graph, u, v)
        for index in indexes.values():
            if index.reachability(u, v) != exact:
                mismatches += 1
    print(f"\nagreement with exact BFS on 200 sampled pairs: "
          f"{'OK' if mismatches == 0 else f'{mismatches} mismatches'}")


if __name__ == "__main__":
    main()
