"""Ablation (DESIGN.md) — micro-batch work sharing on the firehose path.

Sec. 5.2.2 sizes the real-time budget from Twitter's aggregate rate; at
that rate any small window repeats the same hot surfaces, so per-surface
work (candidates, popularity, bucketed recency) and per-(user, candidates)
interest can be shared.  Expected shape: batch linking the test stream is
faster than per-mention linking and produces identical top-1 decisions.
"""

import time

from repro.core.batch import MicroBatchLinker
from repro.eval.reporting import format_table


def test_ablation_micro_batching(benchmark, contexts, report):
    context = contexts[0]
    linker = context.social_temporal()
    tweets = list(context.test_dataset.tweets)

    started = time.perf_counter()
    sequential = {
        tweet.tweet_id: linker.link_tweet(tweet)
        for tweet in tweets
    }
    sequential_s = time.perf_counter() - started

    rows = []
    speedups = {}
    for bucket in (0.0, 60.0, 3600.0):
        batch = MicroBatchLinker(linker, recency_bucket=bucket)
        started = time.perf_counter()
        grouped = batch.link_tweets(tweets)
        batch_s = time.perf_counter() - started
        agreement = _top1_agreement(sequential, grouped)
        speedups[bucket] = sequential_s / batch_s
        rows.append(
            {
                "mode": f"batch (bucket={bucket:g}s)",
                "ms/tweet": round(batch_s / len(tweets) * 1e3, 4),
                "speedup": round(sequential_s / batch_s, 2),
                "top-1 agreement": f"{agreement:.2%}",
            }
        )
    rows.insert(
        0,
        {
            "mode": "sequential",
            "ms/tweet": round(sequential_s / len(tweets) * 1e3, 4),
            "speedup": 1.0,
            "top-1 agreement": "100.00%",
        },
    )
    report(
        "ablation_batching",
        format_table(rows, title="Ablation — micro-batch work sharing"),
    )

    batch = MicroBatchLinker(linker, recency_bucket=60.0)
    benchmark(batch.link_tweets, tweets[:20])

    # exact batching is bit-identical; coarser buckets trade at most a
    # sliver of agreement (the window τ is 3 days, buckets ≤ 1 h)
    assert _top1_agreement(
        sequential, MicroBatchLinker(linker, 0.0).link_tweets(tweets)
    ) == 1.0
    # work sharing wins on wall-clock; individual modes can dip under CPU
    # contention on shared runners, so assert the best mode with headroom
    assert max(speedups.values()) > 1.0
    assert min(speedups.values()) > 0.6


def _top1_agreement(sequential, grouped) -> float:
    total = matched = 0
    for tweet_id, results in sequential.items():
        for single, batched in zip(results, grouped[tweet_id]):
            total += 1
            a = single.best.entity_id if single.best else None
            b = batched.best.entity_id if batched.best else None
            if a == b:
                matched += 1
    return matched / total if total else 1.0
