"""Ablation (DESIGN.md) — reachability provider inside the linker.

The linker runs unchanged on three providers: the materialized transitive
closure, the 2-hop cover a linker gets past the closure's |V|² wall
(``build_compact_two_hop_cover``: PLL + Theorem 1, exact followee sets),
and plain cached online BFS (the "online search" category of Sec. 2,
``repro.testing.oracles.OnlineReachability``).
Expected shape: accuracy is identical across providers, because all three
evaluate Eq. 4 on the exact followee set; the closure-backed linker is
the fastest and the pre-computation-free online provider pays at query
time on cold caches.
"""

import time

from repro.core.linker import SocialTemporalLinker
from repro.eval.harness import SocialTemporalAdapter
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table
from repro.graph.compact_labels import build_compact_two_hop_cover
from repro.testing.oracles import OnlineReachability


def test_ablation_reachability_provider(benchmark, contexts, report):
    context = contexts[0]
    build_times = {
        "transitive closure": None,
        "2-hop cover": None,
        "online BFS": 0.0,
    }

    started = time.perf_counter()
    closure = context.reachability_index
    build_times["transitive closure"] = time.perf_counter() - started
    started = time.perf_counter()
    cover = build_compact_two_hop_cover(context.world.graph)
    build_times["2-hop cover"] = time.perf_counter() - started

    providers = {
        "transitive closure": closure,
        "2-hop cover": cover,
        "online BFS": OnlineReachability(context.world.graph),
    }
    rows = []
    accuracies = {}
    for name, provider in providers.items():
        linker = SocialTemporalLinker(
            context.ckb,
            context.world.graph,
            config=context.config,
            reachability=provider,
            propagation_network=context.propagation_network,
        )
        run = SocialTemporalAdapter(linker, name=name).run(context.test_dataset)
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        accuracies[name] = accuracy.mention_accuracy
        rows.append(
            {
                "provider": name,
                "pre-compute (s)": round(build_times[name], 2),
                "ms/tweet": round(run.seconds_per_tweet * 1e3, 4),
                "mention accuracy": round(accuracy.mention_accuracy, 4),
            }
        )
    report(
        "ablation_reachability",
        format_table(rows, title="Ablation — reachability provider"),
    )

    benchmark(closure.reachability, 1, 2)

    # every provider answers Eq. 4 on the exact followee set
    assert len(set(accuracies.values())) == 1
