"""Fig. 6(c) — accuracy vs tweet length (mentions per tweet, 1–4).

Paper: our framework is stable across tweet lengths (mentions are linked
independently), while the content-based baselines improve with more
mentions per tweet — topical coherence needs co-occurring mentions — and
are weakest on single-mention tweets, where our advantage is largest.
Expected shape: our single-mention advantage over on-the-fly exceeds our
multi-mention advantage, and our accuracy stays within a modest band.
"""

from repro.eval.metrics import accuracy_by_tweet_length
from repro.eval.reporting import format_table

METHODS = ["on-the-fly", "collective", "ours"]


def _length_accuracy(runs, variant):
    """Seed-averaged mention accuracy per tweet length bucket."""
    sums = {length: [0.0, 0] for length in (1, 2, 3, 4)}
    for index, context in enumerate(runs.contexts):
        run = runs.run(index, variant)
        buckets = accuracy_by_tweet_length(
            context.test_dataset.tweets, run.predictions
        )
        for length, report_ in buckets.items():
            sums[length][0] += report_.mention_accuracy * report_.num_mentions
            sums[length][1] += report_.num_mentions
    return {
        length: (total / count if count else 0.0, count)
        for length, (total, count) in sums.items()
    }


def test_fig6c_accuracy_by_tweet_length(benchmark, runs, report):
    per_method = {method: _length_accuracy(runs, method) for method in METHODS}

    rows = []
    for length in (1, 2, 3, 4):
        row = {"mentions/tweet": length}
        for method in METHODS:
            accuracy, count = per_method[method][length]
            row[method] = round(accuracy, 4)
        row["#mentions"] = per_method["ours"][length][1]
        rows.append(row)
    report(
        "fig6c_tweet_length",
        format_table(rows, title="Fig 6(c) — mention accuracy vs tweet length "
                                 f"(avg of {len(runs.contexts)} seeds)"),
    )

    context = runs.contexts[0]
    linker = context.social_temporal()
    long_tweet = max(context.test_dataset.tweets, key=lambda t: t.num_mentions)
    benchmark(linker.link_tweet, long_tweet)

    ours = per_method["ours"]
    onthefly = per_method["on-the-fly"]
    # largest advantage on single-mention tweets, where coherence is silent
    single_gap = ours[1][0] - onthefly[1][0]
    multi_gaps = [ours[k][0] - onthefly[k][0] for k in (2, 3) if ours[k][1] > 30]
    assert multi_gaps, "not enough multi-mention tweets to compare"
    assert single_gap > min(multi_gaps)
    # our framework stays effective across lengths (independent linking)
    populated = [ours[k][0] for k in (1, 2, 3) if ours[k][1] > 30]
    assert max(populated) - min(populated) < 0.15
