"""Appendix D — abstention via the β + γ no-interest bound.

The paper's guard against not-yet-known entity meanings: any candidate the
user has no interest in scores at most β + γ, so thresholding there avoids
false-positive links before the knowledgebase catches up.  This bench
sweeps the threshold from 0 (link everything) past β + γ and traces the
coverage/precision trade-off.  Expected shape: precision on the linked
subset rises monotonically-ish as the threshold grows while coverage
falls, and the β + γ operating point beats link-everything precision.
"""

from repro.eval.reporting import format_table

THRESHOLD_STEPS = (0.0, 0.2, 0.4, 0.6, 0.8)


def test_appxd_abstention_tradeoff(benchmark, runs, report):
    rows = []
    curve = {}
    for step in THRESHOLD_STEPS:
        linked = correct = total = 0
        for index, context in enumerate(runs.contexts):
            config = context.config
            threshold = step * config.no_interest_bound / 0.4 if step else None
            # interpret steps as absolute score thresholds scaled so that
            # step 0.4 equals the paper's beta + gamma bound
            linker = context.social_temporal()
            for tweet in context.test_dataset.tweets:
                for mention in tweet.mentions:
                    if mention.true_entity is None:
                        continue
                    total += 1
                    result = linker.link(mention.surface, tweet.user, tweet.timestamp)
                    kept = result.top_k(1, threshold=threshold)
                    if not kept:
                        continue
                    linked += 1
                    if kept[0].entity_id == mention.true_entity:
                        correct += 1
        coverage = linked / total if total else 0.0
        precision = correct / linked if linked else 0.0
        curve[step] = (coverage, precision)
        rows.append(
            {
                "threshold": (
                    f"{step:.1f}·(β+γ)/0.4" if step else "none (link all)"
                ),
                "coverage": f"{coverage:.2%}",
                "precision": round(precision, 4),
            }
        )
    report(
        "appxd_abstention",
        format_table(
            rows,
            title="Appendix D — abstention threshold: coverage vs precision "
            f"(avg of {len(runs.contexts)} seeds)",
        ),
    )

    context = runs.contexts[0]
    linker = context.social_temporal()
    result = linker.link(
        context.test_dataset.tweets[0].mentions[0].surface,
        context.test_dataset.tweets[0].user,
        context.test_dataset.tweets[0].timestamp,
    )
    benchmark(result.top_k, 1, context.config.no_interest_bound)

    # shape: thresholding trades coverage for precision
    coverages = [curve[s][0] for s in THRESHOLD_STEPS]
    assert coverages == sorted(coverages, reverse=True)
    # the beta+gamma operating point (step 0.4) is strictly more precise
    # than linking everything
    assert curve[0.4][1] > curve[0.0][1]
    # and still links a non-trivial share of mentions
    assert curve[0.4][0] > 0.3
