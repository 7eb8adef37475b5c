"""Fig. 4(d) — necessity of the recency propagation model.

Paper: linking with propagated recency beats raw sliding-window recency
(the NBA burst lifts Michael Jordan (basketball); ICML lifts the ML expert).
Expected shape: propagation on ≥ propagation off on both accuracy metrics.
"""

from repro.core.recency import propagated_recency
from repro.eval.reporting import format_table

VARIANTS = {
    "without propagation": "ours:recency_propagation=false",
    "with propagation": "ours:recency_propagation=true",
}


def test_fig4d_recency_propagation(benchmark, runs, report):
    reports = {name: runs.accuracy(variant) for name, variant in VARIANTS.items()}

    rows = [
        {
            "recency model": name,
            "mention accuracy": round(rep.mention_accuracy, 4),
            "tweet accuracy": round(rep.tweet_accuracy, 4),
        }
        for name, rep in reports.items()
    ]
    report(
        "fig4d_propagation",
        format_table(rows, title="Fig 4(d) — recency propagation "
                                 f"(avg of {len(runs.contexts)} seeds)"),
    )

    # benchmark one propagated-recency read on the real network
    context = runs.contexts[0]
    config = context.config
    seed_entity = context.ckb.linked_entities()[0]
    now = context.test_dataset.tweets[0].timestamp
    benchmark(
        propagated_recency, context.ckb, context.propagation_network,
        [seed_entity], now, config.window, config.burst_threshold,
    )

    with_prop = reports["with propagation"]
    without = reports["without propagation"]
    assert with_prop.mention_accuracy >= without.mention_accuracy
    assert with_prop.tweet_accuracy >= without.tweet_accuracy
