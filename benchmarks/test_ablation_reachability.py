"""Ablation (DESIGN.md) — reachability provider inside the linker.

The linker runs unchanged on three providers: the materialized transitive
closure, the extended 2-hop cover (the dict oracle, label-recovered
followee sets), and plain cached online BFS (the "online search" category
of Sec. 2).  Expected shape: accuracy is essentially
identical across providers (the 2-hop label-recovered followee sets are
lower bounds, so tiny deviations are allowed); the closure-backed linker is
the fastest and the pre-computation-free online provider pays at query time
on cold caches.
"""

import time

from repro.core.linker import SocialTemporalLinker
from repro.eval.harness import SocialTemporalAdapter
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table
from repro.testing.oracles import build_two_hop_cover


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
    cover = build_two_hop_cover(context.world.graph, context.config.max_hops)
    build_times["2-hop cover"] = time.perf_counter() - started

    providers = {
        "transitive closure": closure,
        "2-hop cover": cover,
        "online BFS": None,  # linker builds its cached BFS provider
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

    # accuracy is provider-independent up to 2-hop followee lower-bounding
    values = list(accuracies.values())
    assert max(values) - min(values) < 0.02
    assert accuracies["transitive closure"] == accuracies["online BFS"]
