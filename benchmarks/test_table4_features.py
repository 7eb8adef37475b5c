"""Table 4 — effectiveness of the three features, alone and combined.

Paper (mention / tweet): interest-only 0.7190/0.6281, recency-only
0.6860/0.6000, popularity-only 0.6777/0.5906, all features 0.7273/0.6375.
Expected shape: interest is the strongest single feature, recency ≥
popularity, and the full combination beats every single feature.
"""

from repro.eval.reporting import format_table

VARIANTS = {
    "interest only (α=1)": "ours:alpha=1,beta=0,gamma=0",
    "recency only (β=1)": "ours:alpha=0,beta=1,gamma=0",
    "popularity only (γ=1)": "ours:alpha=0,beta=0,gamma=1",
    "all features": "ours",
}


def test_table4_feature_ablation(benchmark, runs, report):
    reports = {name: runs.accuracy(variant) for name, variant in VARIANTS.items()}

    rows = [
        {
            "features": name,
            "mention accuracy": round(rep.mention_accuracy, 4),
            "tweet accuracy": round(rep.tweet_accuracy, 4),
        }
        for name, rep in reports.items()
    ]
    report(
        "table4_features",
        format_table(rows, title="Table 4 — feature effectiveness "
                                 f"(avg of {len(runs.contexts)} seeds)"),
    )

    context = runs.contexts[0]
    linker = context.social_temporal()
    benchmark(linker.link_tweet, context.test_dataset.tweets[-1])

    interest = reports["interest only (α=1)"]
    recency = reports["recency only (β=1)"]
    popularity = reports["popularity only (γ=1)"]
    combined = reports["all features"]
    # interest is the dominant feature
    assert interest.mention_accuracy > recency.mention_accuracy
    assert interest.mention_accuracy > popularity.mention_accuracy
    # recency (time-dependent) is at least as useful as static popularity
    assert recency.mention_accuracy >= popularity.mention_accuracy - 0.01
    # the combination wins overall
    assert combined.mention_accuracy > interest.mention_accuracy
    assert combined.mention_accuracy > recency.mention_accuracy
    assert combined.mention_accuracy > popularity.mention_accuracy
