#!/usr/bin/env python3
"""Streaming entity linking with online knowledge updates.

Replays the test stream chronologically through Appendix D's loop:
confident links update the complemented knowledgebase on the fly
(communities, counts, recency window); mentions with no candidate above
the no-interest bound abstain instead of force-linking.  Prints running
accuracy and latency — the real-time scenario of Sec. 5.2.2.

Run:  python examples/streaming_linking.py
"""

import time

from repro.eval.context import build_experiment
from repro.stream.generator import StreamProfile, SyntheticWorld


def main() -> None:
    print("generating a synthetic microblog world ...")
    world = SyntheticWorld.generate(stream_profile=StreamProfile(seed=13))
    context = build_experiment(world=world, complement_method="collective")
    linker = context.social_temporal()._linker
    bound = linker.config.no_interest_bound

    correct = total = abstained = 0
    started = time.perf_counter()
    dataset = context.test_dataset
    for tweet in dataset.tweets:
        for mention in tweet.mentions:
            result = linker.link(mention.surface, tweet.user, tweet.timestamp)
            proposals = result.top_k(1, threshold=bound)
            total += 1
            if proposals:
                if proposals[0].entity_id == mention.true_entity:
                    correct += 1
                # the "tweet author confirms" loop of Appendix D — here the
                # generator's ground truth plays the author
                linker.confirm_link(
                    mention.true_entity, tweet.user, tweet.timestamp, tweet.tweet_id
                )
            else:
                abstained += 1
    elapsed = time.perf_counter() - started

    linked = total - abstained
    print(f"\nstream: {dataset.num_tweets} tweets, {total} mentions")
    print(f"linked: {linked} ({linked / total:.1%}), abstained: {abstained}")
    print(f"precision on linked mentions: {correct / linked:.4f}")
    print(f"throughput: {dataset.num_tweets / elapsed:,.0f} tweets/s "
          f"({1e3 * elapsed / dataset.num_tweets:.3f} ms/tweet)")
    print(f"knowledgebase grew to {context.ckb.total_links} links")


if __name__ == "__main__":
    main()
