"""Ablation (DESIGN.md) — end-to-end NER cost on the linking pipeline.

The paper's inputs are pre-extracted mentions ("an entity mention along
with its author"); a deployed system runs knowledge-based NER first
(Appendix A).  This bench compares planted-mention linking against the
full raw-text pipeline (gazetteer NER → candidates → link), separating
the linker's accuracy from the recognition front end's recall.

Expected shape: the gazetteer recovers the bulk of planted mentions
(losses come from typos the exact gazetteer cannot see and overlapping
longest-cover matches), linking accuracy *on the recognized subset*
matches planted-mention accuracy, and end-to-end accuracy is the product
of the two stages, as usual for pipelines.
"""

from repro.core.pipeline import TextLinkingPipeline
from repro.eval.reporting import format_table


def test_ablation_ner_pipeline(benchmark, runs, report):
    context = runs.contexts[0]
    linker = context.social_temporal()
    pipeline = TextLinkingPipeline(linker)
    tweets = list(context.test_dataset.tweets)

    planted_total = planted_correct = 0
    recognized = recognized_correct = 0
    for tweet in tweets:
        truths = {}
        for mention in tweet.mentions:
            truths.setdefault(mention.surface, mention.true_entity)
            planted_total += 1
            result = linker.link(mention.surface, tweet.user, tweet.timestamp)
            if result.best and result.best.entity_id == mention.true_entity:
                planted_correct += 1
        annotation = pipeline.annotate(tweet.text, tweet.user, tweet.timestamp)
        for span in annotation.spans:
            if span.surface not in truths:
                continue  # spurious recognition (context words)
            recognized += 1
            if span.entity_id == truths[span.surface]:
                recognized_correct += 1

    ner_recall = recognized / planted_total
    planted_accuracy = planted_correct / planted_total
    linked_accuracy = recognized_correct / max(recognized, 1)
    end_to_end = recognized_correct / planted_total
    rows = [
        {"stage": "NER recall (gazetteer, longest cover)", "value": round(ner_recall, 4)},
        {"stage": "linking accuracy on planted mentions", "value": round(planted_accuracy, 4)},
        {"stage": "linking accuracy on recognized mentions", "value": round(linked_accuracy, 4)},
        {"stage": "end-to-end (recognize AND link correctly)", "value": round(end_to_end, 4)},
    ]
    report(
        "ablation_ner",
        format_table(rows, title="Ablation — raw-text pipeline vs planted mentions"),
    )

    benchmark(pipeline.annotate, tweets[0].text, tweets[0].user, tweets[0].timestamp)

    # gazetteer recovers most planted mentions (typos cost a few percent)
    assert ner_recall > 0.8
    # recognition does not distort linking quality on the surfaces it finds
    assert abs(linked_accuracy - planted_accuracy) < 0.08
    # pipeline stages compose roughly multiplicatively
    assert end_to_end <= min(ner_recall, linked_accuracy) + 1e-9
    assert end_to_end > 0.45
