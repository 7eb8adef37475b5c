"""Fig. 5(c) — linking time vs number of influential users checked.

Paper: restricting reachability checks to the top-k influential users keeps
user-interest estimation cheap ("we observe an insignificant difference" in
time on their small communities) and — the motivation of Sec. 4.1.2 —
*improves* accuracy, because averaging reachability over the long tail of
weak community members dilutes the signal of the genuinely influential.
Expected shape: accuracy peaks at a small k and degrades toward the full
community; latency does not shrink as k grows.
"""

import dataclasses

from repro.config import LinkerConfig
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table

K_VALUES = [1, 2, 3, 5, 10, 25, 50]


def test_fig5c_influential_user_count(benchmark, contexts, report):
    context = contexts[0]
    rows = []
    latencies = []
    for k in K_VALUES:
        config = dataclasses.replace(LinkerConfig(), influential_users=k)
        run = context.run("ours", config)
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        latencies.append(run.seconds_per_tweet * 1e3)
        rows.append(
            {
                "#influential users": k,
                "ms/tweet": round(run.seconds_per_tweet * 1e3, 4),
                "mention accuracy": round(accuracy.mention_accuracy, 4),
            }
        )
    report(
        "fig5c_influential",
        format_table(rows, title="Fig 5(c) — time vs influential users checked"),
    )

    linker = context.social_temporal(
        config=dataclasses.replace(LinkerConfig(), influential_users=50)
    )
    benchmark(linker.link_tweet, context.test_dataset.tweets[0])

    # shape: the paper observes an "insignificant difference" with a mild
    # upward trend — large k must not be cheaper than small k beyond noise
    assert sum(latencies[-2:]) >= sum(latencies[:2]) * 0.8
    # restricting to a few influential users is also the accuracy sweet spot
    accuracies = [row["mention accuracy"] for row in rows]
    best_k_index = accuracies.index(max(accuracies))
    assert K_VALUES[best_k_index] <= 5
    assert accuracies[-1] < max(accuracies)
