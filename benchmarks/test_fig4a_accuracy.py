"""Fig. 4(a) — linking accuracy: on-the-fly vs collective vs ours.

Paper (Twitter, Dtest): on-the-fly ≈ 0.660/0.581, collective ≈ 0.686/0.600,
ours ≈ 0.727/0.638 (mention/tweet).  Expected shape: ours > collective >
on-the-fly on both metrics, with mention accuracy above tweet accuracy.
"""

import random

from repro.eval.reporting import format_table
from repro.eval.significance import bootstrap_from_outcomes, paired_outcomes

METHODS = ["on-the-fly", "collective", "ours"]


def _pooled_comparison(runs, variant_a, variant_b):
    """Paired bootstrap of a − b pooled over the seed worlds."""
    outcomes = []
    for index, context in enumerate(runs.contexts):
        run_a = runs.run(index, variant_a)
        run_b = runs.run(index, variant_b)
        outcomes.extend(
            paired_outcomes(
                context.test_dataset.tweets, run_a.predictions, run_b.predictions
            )
        )
    return bootstrap_from_outcomes(outcomes, num_resamples=1000, rng=random.Random(0))


def test_fig4a_method_accuracy(benchmark, runs, report):
    reports = {method: runs.accuracy(method) for method in METHODS}

    rows = [
        {
            "method": method,
            "mention accuracy": round(reports[method].mention_accuracy, 4),
            "tweet accuracy": round(reports[method].tweet_accuracy, 4),
        }
        for method in METHODS
    ]
    vs_collective = _pooled_comparison(runs, "ours", "collective")
    vs_onthefly = _pooled_comparison(runs, "ours", "on-the-fly")
    significance = (
        f"paired bootstrap (pooled mentions, n={vs_collective.num_mentions}): "
        f"ours−collective = {vs_collective.difference:+.4f} "
        f"[{vs_collective.ci_low:+.4f}, {vs_collective.ci_high:+.4f}], "
        f"p={vs_collective.p_value:.3f}; "
        f"ours−on-the-fly = {vs_onthefly.difference:+.4f} "
        f"[{vs_onthefly.ci_low:+.4f}, {vs_onthefly.ci_high:+.4f}], "
        f"p={vs_onthefly.p_value:.3f}"
    )
    report(
        "fig4a_accuracy",
        format_table(rows, title="Fig 4(a) — accuracy vs state of the art "
                                 f"(avg of {len(runs.contexts)} seeds)")
        + "\n" + significance,
    )

    # benchmark the online path: our linker on one test tweet
    context = runs.contexts[0]
    linker = context.social_temporal()
    tweet = context.test_dataset.tweets[0]
    benchmark(linker.link_tweet, tweet)

    # shape: ours > collective > on-the-fly, mention >= tweet accuracy
    ours, collective, onthefly = (
        reports["ours"],
        reports["collective"],
        reports["on-the-fly"],
    )
    assert ours.mention_accuracy > collective.mention_accuracy
    assert collective.mention_accuracy > onthefly.mention_accuracy
    assert ours.tweet_accuracy > collective.tweet_accuracy
    assert collective.tweet_accuracy > onthefly.tweet_accuracy
    for rep in reports.values():
        assert rep.mention_accuracy >= rep.tweet_accuracy
    # the advantage over both baselines survives a paired bootstrap
    assert vs_collective.significant
    assert vs_onthefly.significant
