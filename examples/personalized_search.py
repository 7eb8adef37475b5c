#!/usr/bin/env python3
"""Personalized microblog search — the paper's motivating application.

A keyword query containing an ambiguous entity mention is resolved with the
querying user's social-temporal context, and the tweets linked to the chosen
entity are returned as personalized search results (Sec. 3.2.2).

Run:  python examples/personalized_search.py
"""

from repro.eval.context import build_experiment
from repro.search import PersonalizedSearchEngine, TweetStore
from repro.stream.generator import StreamProfile, SyntheticWorld


def main() -> None:
    print("generating a synthetic microblog world ...")
    world = SyntheticWorld.generate(stream_profile=StreamProfile(seed=13))
    context = build_experiment(world=world, complement_method="collective")
    engine = PersonalizedSearchEngine(
        context.social_temporal(), TweetStore(world.tweets)
    )
    kb = world.kb

    # pick an ambiguous mention and two users with opposing interests
    surface, members = next(iter(world.synthetic_kb.ambiguous_surfaces.items()))
    topic_a = world.synthetic_kb.topic_of(members[0])
    topic_b = world.synthetic_kb.topic_of(members[1])
    fan_a = world.hubs[topic_a][0]  # hubs have maximally concentrated interest
    fan_b = world.hubs[topic_b][0]
    now = world.stream_profile.horizon

    print(f"\nquery: {surface!r} — candidates:")
    for entity_id in kb.candidates(surface):
        print(f"  - {kb.entity(entity_id).title} (topic {kb.entity(entity_id).topic})")

    for label, user in [(f"user interested in topic {topic_a}", fan_a),
                        (f"user interested in topic {topic_b}", fan_b)]:
        response = engine.search(surface, user=user, now=now, limit=5)
        print(f"\n{label} (user {user}):")
        for best in response.linked_entities:
            title = kb.entity(best.entity_id).title
            print(f"  linked to: {title}  score={best.score:.3f}")
        print(f"  top results ({len(response.hits)} freshest linked tweets):")
        for hit in response.hits:
            day = hit.tweet.timestamp / 86_400
            print(f"    day {day:6.1f}  by user {hit.tweet.user}")


if __name__ == "__main__":
    main()
