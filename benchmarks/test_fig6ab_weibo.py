"""Fig. 6(a,b) — generalizability to a second microblogging site ("Weibo").

Paper (Appendix C.1): on Chinese Sina Weibo — denser postings, ~2.3 entity
mentions per tweet — the framework still beats both baselines, although by
a smaller margin than on Twitter (richer intra-tweet coherence helps the
on-the-fly method), and still links a tweet within ~0.5 ms.

The Weibo analogue world raises the mention density (extra_mention_rate)
and the posting volume.  Expected shape: ours > collective > on-the-fly on
mention accuracy; the on-the-fly deficit shrinks vs the Twitter world; the
latency stays within the real-time budget (here 2 ms/tweet per the paper's
Weibo arithmetic: 100M posts/day ⇒ ~2 ms).
"""

import pytest

from repro.eval.context import build_experiment
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table
from repro.stream.generator import SyntheticWorld
from repro.stream.profiles import WEIBO_PROFILE

WEIBO_BUDGET_MS = 2.0


@pytest.fixture(scope="module")
def weibo_context():
    world = SyntheticWorld.generate(stream_profile=WEIBO_PROFILE)
    return build_experiment(world=world, complement_method="collective")


def test_fig6ab_weibo_generalizability(benchmark, weibo_context, runs, report):
    context = weibo_context
    results = {}
    for name, method in [
        ("on-the-fly", "onthefly"),
        ("collective", "collective"),
        ("ours", "ours"),
    ]:
        run = context.run(method)
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        results[name] = (accuracy, run)

    density = sum(t.num_mentions for t in context.test_dataset.tweets) / max(
        context.test_dataset.num_tweets, 1
    )
    rows = [
        {
            "method": name,
            "mention accuracy": round(accuracy.mention_accuracy, 4),
            "tweet accuracy": round(accuracy.tweet_accuracy, 4),
            "ms/tweet": round(run.seconds_per_tweet * 1e3, 4),
        }
        for name, (accuracy, run) in results.items()
    ]
    report(
        "fig6ab_weibo",
        format_table(
            rows,
            title=f"Fig 6(a,b) — Weibo analogue ({density:.2f} mentions/post)",
        ),
    )

    linker = context.social_temporal()
    benchmark(linker.link_tweet, context.test_dataset.tweets[0])

    ours, collective, onthefly = (
        results["ours"][0],
        results["collective"][0],
        results["on-the-fly"][0],
    )
    # the posting stream really is denser than the Twitter worlds
    assert density > 1.8
    # same winner ordering as on "Twitter"
    assert ours.mention_accuracy > collective.mention_accuracy
    assert collective.mention_accuracy > onthefly.mention_accuracy
    # the on-the-fly gap narrows relative to the Twitter world (coherence
    # works better with more mentions per posting)
    twitter_gap = (
        runs.accuracy("ours").mention_accuracy
        - runs.accuracy("on-the-fly").mention_accuracy
    )
    weibo_gap = ours.mention_accuracy - onthefly.mention_accuracy
    assert weibo_gap < twitter_gap
    # real-time budget for Weibo volumes
    assert results["ours"][1].seconds_per_tweet * 1e3 < WEIBO_BUDGET_MS
