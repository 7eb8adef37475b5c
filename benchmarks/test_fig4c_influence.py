"""Fig. 4(c) — tf-idf vs entropy influence estimation.

Paper: the entropy estimator beats the tf-idf one because it tolerates an
influential user's occasional off-community posting.  Expected shape:
entropy ≥ tf-idf on both accuracy metrics; the gap is small (as in the
paper).  Note the estimator is instantiated as ``share / (2 + entropy)`` —
the literal ``1/entropy`` of Eq. 7 is undefined at zero and any vanishing
epsilon inverts the intended ranking (DESIGN.md §5).
"""

from repro.eval.reporting import format_table

VARIANTS = {
    "tfidf": "ours:influence_method=tfidf",
    "entropy": "ours:influence_method=entropy",
}


def test_fig4c_influence_estimators(benchmark, runs, report):
    reports = {name: runs.accuracy(variant) for name, variant in VARIANTS.items()}

    rows = [
        {
            "influence": name,
            "mention accuracy": round(rep.mention_accuracy, 4),
            "tweet accuracy": round(rep.tweet_accuracy, 4),
        }
        for name, rep in reports.items()
    ]
    report(
        "fig4c_influence",
        format_table(rows, title="Fig 4(c) — user influence estimation "
                                 f"(avg of {len(runs.contexts)} seeds)"),
    )

    from repro.core.influence import top_influential_users

    context = runs.contexts[0]
    entity_id = context.ckb.linked_entities()[0]
    candidates = tuple(context.ckb.linked_entities()[:4])
    benchmark(
        top_influential_users, context.ckb, entity_id, candidates, 3, "entropy"
    )

    entropy, tfidf = reports["entropy"], reports["tfidf"]
    assert entropy.mention_accuracy >= tfidf.mention_accuracy
    assert entropy.tweet_accuracy >= tfidf.tweet_accuracy
