"""Fig. 5(d) — linking time as the complemented knowledgebase grows.

Paper: after restricting reachability checks to influential users and
recency propagation to highly-related clusters, per-tweet linking time is
insensitive to how many tweets complement the KB (D90 → D10).  Expected
shape: latency varies by far less than the ~8× growth in link volume.
"""

from repro.eval.context import build_experiment
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table
from repro.stream.dataset import PAPER_THRESHOLDS


def test_fig5d_kb_scalability(benchmark, contexts, report):
    world = contexts[0].world
    rows = []
    latencies = []
    link_volumes = []
    for threshold in sorted(PAPER_THRESHOLDS, reverse=True):  # D90 -> D10
        context = build_experiment(
            world=world, threshold=threshold, complement_method="truth"
        )
        run = context.run("ours")
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        latencies.append(run.seconds_per_tweet * 1e3)
        link_volumes.append(context.ckb.total_links)
        rows.append(
            {
                "complemented with": f"D{threshold}",
                "links": context.ckb.total_links,
                "ms/tweet": round(run.seconds_per_tweet * 1e3, 4),
                "mention accuracy": round(accuracy.mention_accuracy, 4),
            }
        )
    report(
        "fig5d_scalability",
        format_table(rows, title="Fig 5(d) — latency vs knowledgebase size"),
    )

    context = build_experiment(world=world, threshold=10, complement_method="truth")
    linker = context.social_temporal()
    benchmark(linker.link_tweet, context.test_dataset.tweets[0])

    # shape: link volume grows much faster than latency
    volume_growth = link_volumes[-1] / link_volumes[0]
    latency_growth = max(latencies) / min(latencies)
    assert volume_growth > 2.0
    assert latency_growth < volume_growth
    # stays comfortably within the real-time budget at every size
    assert max(latencies) < 2.0
