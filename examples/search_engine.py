#!/usr/bin/env python3
"""Full personalized search engine over a synthetic microblog world.

Wires the high-level :class:`repro.search.PersonalizedSearchEngine` on top
of a generated world: the text-linking pipeline detects entity mentions
with the gazetteer and the linker resolves them per user, and results are
ranked by freshness × relevance to the query's remaining keywords.
Queries without a linkable mention fall back to keyword search.

Run:  python examples/search_engine.py
"""

from repro.eval.context import build_experiment
from repro.search import PersonalizedSearchEngine, TweetStore
from repro.stream.generator import StreamProfile, SyntheticWorld


def main() -> None:
    print("generating a synthetic microblog world ...")
    world = SyntheticWorld.generate(stream_profile=StreamProfile(seed=13))
    context = build_experiment(world=world, complement_method="truth")
    linker = context.social_temporal()
    engine = PersonalizedSearchEngine(linker, TweetStore(world.tweets))
    kb = world.kb
    now = world.stream_profile.horizon

    surface, members = next(iter(world.synthetic_kb.ambiguous_surfaces.items()))
    topic_words = world.synthetic_kb.topic_vocab[
        world.synthetic_kb.topic_of(members[0])
    ]
    query = f"{surface} {topic_words[0]}"
    fan = world.hubs[world.synthetic_kb.topic_of(members[0])][0]

    print(f"\nquery {query!r} by user {fan}:")
    response = engine.search(query, user=fan, now=now)
    mentions = [span.surface for span in response.annotation.spans]
    print(f"  parsed mentions: {mentions}, "
          f"keywords: {sorted(response.keywords)}")
    for candidate in response.linked_entities:
        print(f"  linked entity: {kb.entity(candidate.entity_id).title} "
              f"(score {candidate.score:.3f})")
    for hit in response.hits[:5]:
        day = hit.tweet.timestamp / 86_400
        print(f"    {hit.score:.3f}  day {day:6.1f}  {hit.tweet.text[:60]}")

    print("\nmention-free query 'random chatter words':")
    fallback = engine.search("random chatter words", user=fan, now=now)
    print(f"  fallback used: {fallback.used_fallback}, "
          f"hits: {len(fallback.hits)}")


if __name__ == "__main__":
    main()
