"""Synthetic microblog world: users, follow graph, and the tweet stream.

This module replaces the crawled Twitter corpus of Sec. 5.1.2 with a
generator whose mechanisms are exactly the ones the paper's features
exploit (see DESIGN.md §2):

1. every user carries a latent **topic-interest distribution**;
2. the **follow graph** is built from those interests (topical hubs +
   homophily), so social reachability genuinely predicts tweet content;
3. users tweet **mentions of entities** sampled from their interests,
   modulated by the **burst timeline** — so the sliding recency window has
   real signal;
4. every planted mention records its **true entity**, replacing the paper's
   human annotation;
5. per-user activity is heavy-tailed, producing the paper's split between
   content generators (active, used to complement the KB) and information
   seekers (inactive, the test population).
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.config import DAY
from repro.graph.digraph import DiGraph
from repro.graph.generators import HUBS_PER_TOPIC, topical_social_graph
from repro.kb.builder import KBProfile, SyntheticKB, SyntheticWikipediaBuilder
from repro.stream.events import EventTimeline
from repro.stream.tweet import MentionIntern, MentionSpan, Tweet


@dataclasses.dataclass(frozen=True)
class StreamProfile:
    """Knobs of the synthetic tweet stream."""

    num_users: int = 400
    #: Simulation horizon in seconds (paper: ~6 months of tweets).
    horizon: float = 120 * DAY
    #: Heavy-tail activity: per-user tweet count ~ lognormal(mean, sigma).
    activity_log_mean: float = 3.0
    activity_log_sigma: float = 1.1
    #: Zipf-ish exponent skewing which topics users prefer; real microblog
    #: attention is heavy-tailed (a few globally hot topics), which is what
    #: makes the popularity prior informative (Table 4).
    topic_skew: float = 0.8
    #: Tweets posted by the most active hub of each topic.
    hub_tweets: int = 120
    #: Activity decay between a topic's hubs: hub j posts
    #: ``hub_tweets * hub_tweets_decay**j`` tweets.  Tiered hub activity is
    #: what makes the D-series complementation trade-off of Fig. 4(b) real:
    #: a high activity threshold excludes some influential accounts.
    hub_tweets_decay: float = 0.55
    #: Number of topics each non-hub user is genuinely interested in.
    interests_per_user: int = 2
    #: Probability that a planted mention uses an ambiguous shared surface.
    #: High on purpose: ambiguous mentions are the hard cases the paper's
    #: annotated corpus is full of, and unambiguous ones are free points.
    ambiguous_mention_rate: float = 0.85
    #: Probability of a one-character typo in a mention surface.
    typo_rate: float = 0.05
    #: Typo model: "substitute" (default) or "all" (substitute / insert /
    #: delete / transpose).  "all" is more realistic but note transposes
    #: sit at Levenshtein distance 2 and defeat the k=1 fuzzy index — a
    #: small residue of unrecoverable noise.
    typo_kinds: str = "substitute"
    #: Geometric tail for extra mentions: P(n mentions) ∝ rate^(n-1).
    extra_mention_rate: float = 0.25
    max_mentions_per_tweet: int = 4
    #: Context words per tweet (mostly common chatter — tweets are short
    #: and informal, so the context signal is weak, Sec. 1.1).
    context_words: int = 6
    #: Probability a context word comes from the topic vocabulary rather
    #: than the shared common vocabulary.
    topic_word_rate: float = 0.25
    #: Burst events per topic over the horizon.
    events_per_topic: int = 3
    event_intensity: float = 15.0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ValueError("need at least two users")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= self.ambiguous_mention_rate <= 1.0:
            raise ValueError("ambiguous_mention_rate must be in [0, 1]")
        if not 0.0 <= self.typo_rate <= 1.0:
            raise ValueError("typo_rate must be in [0, 1]")
        if self.max_mentions_per_tweet < 1:
            raise ValueError("max_mentions_per_tweet must be >= 1")


@dataclasses.dataclass
class SyntheticWorld:
    """Everything one experiment needs, generated from a single seed."""

    synthetic_kb: SyntheticKB
    graph: DiGraph
    interests: np.ndarray
    hubs: List[List[int]]
    timeline: EventTimeline
    tweets: List[Tweet]
    stream_profile: StreamProfile

    @property
    def kb(self):
        return self.synthetic_kb.kb

    @property
    def num_users(self) -> int:
        return self.graph.num_nodes

    @classmethod
    def generate(
        cls,
        kb_profile: KBProfile = KBProfile(),
        stream_profile: StreamProfile = StreamProfile(),
    ) -> "SyntheticWorld":
        """Build KB, users, follow graph, timeline, and the tweet stream."""
        generator = TweetStreamGenerator(kb_profile, stream_profile)
        return generator.generate()


class TweetStreamGenerator:
    """Stateful generator; see :class:`SyntheticWorld` for the output."""

    def __init__(
        self,
        kb_profile: KBProfile = KBProfile(),
        stream_profile: StreamProfile = StreamProfile(),
    ) -> None:
        self._kb_profile = kb_profile
        self._profile = stream_profile

    # ------------------------------------------------------------------ #
    # pipeline
    # ------------------------------------------------------------------ #
    def generate(self) -> SyntheticWorld:
        profile = self._profile
        rng = random.Random(profile.seed)
        synthetic_kb = SyntheticWikipediaBuilder(self._kb_profile).build()
        num_topics = self._kb_profile.num_topics

        interests, hubs = self._make_users(num_topics, rng)
        graph = topical_social_graph(
            interests, hubs, random.Random(rng.randrange(2**31))
        )
        timeline = EventTimeline.random(
            num_topics=num_topics,
            horizon=profile.horizon,
            events_per_topic=profile.events_per_topic,
            intensity=profile.event_intensity,
            rng=random.Random(rng.randrange(2**31)),
        )
        tweets = self._make_tweets(synthetic_kb, interests, hubs, timeline, rng)
        return SyntheticWorld(
            synthetic_kb=synthetic_kb,
            graph=graph,
            interests=interests,
            hubs=hubs,
            timeline=timeline,
            tweets=tweets,
            stream_profile=profile,
        )

    # ------------------------------------------------------------------ #
    # users
    # ------------------------------------------------------------------ #
    def _make_users(
        self, num_topics: int, rng: random.Random
    ) -> Tuple[np.ndarray, List[List[int]]]:
        """Interest matrix plus per-topic hub account ids.

        Hubs occupy the first ids and have ~0.9 of their mass on one topic
        (the @NBAOfficial pattern); normal users spread their mass over
        ``interests_per_user`` topics with a small uniform floor.
        """
        profile = self._profile
        num_hubs = HUBS_PER_TOPIC * num_topics
        if num_hubs >= profile.num_users:
            raise ValueError("num_users too small for the configured hubs")
        interests = np.full(
            (profile.num_users, num_topics), 0.02 / num_topics, dtype=np.float64
        )

        hubs: List[List[int]] = [[] for _ in range(num_topics)]
        user = 0
        for topic in range(num_topics):
            for _ in range(HUBS_PER_TOPIC):
                interests[user, topic] += 0.98
                hubs[topic].append(user)
                user += 1
        # Zipf-skewed topic appeal: low-index topics are globally hotter.
        appeal = [1.0 / (topic + 1) ** profile.topic_skew for topic in range(num_topics)]
        for user in range(num_hubs, profile.num_users):
            chosen = self._weighted_sample(
                appeal, min(profile.interests_per_user, num_topics), rng
            )
            weights = [rng.random() + 0.2 for _ in chosen]
            total = sum(weights)
            for topic, weight in zip(chosen, weights):
                interests[user, topic] += 0.98 * weight / total
        interests /= interests.sum(axis=1, keepdims=True)
        return interests, hubs

    @staticmethod
    def _weighted_sample(
        weights: Sequence[float], count: int, rng: random.Random
    ) -> List[int]:
        """Sample ``count`` distinct indices proportionally to ``weights``."""
        remaining = list(range(len(weights)))
        current = list(weights)
        chosen: List[int] = []
        for _ in range(count):
            total = sum(current)
            threshold = rng.random() * total
            cumulative = 0.0
            pick = len(current) - 1
            for position, weight in enumerate(current):
                cumulative += weight
                if threshold < cumulative:
                    pick = position
                    break
            chosen.append(remaining.pop(pick))
            current.pop(pick)
        return chosen

    # ------------------------------------------------------------------ #
    # tweets
    # ------------------------------------------------------------------ #
    def _make_tweets(
        self,
        synthetic_kb: SyntheticKB,
        interests: np.ndarray,
        hubs: List[List[int]],
        timeline: EventTimeline,
        rng: random.Random,
    ) -> List[Tweet]:
        profile = self._profile
        hub_tier = {
            hub: rank
            for topic_hubs in hubs
            for rank, hub in enumerate(topic_hubs)
        }
        raw: List[Tuple[float, int, Tuple[MentionSpan, ...], str]] = []
        # spans and mention tuples shared across tweets, as a loaded world's are
        interned = MentionIntern()
        for user in range(profile.num_users):
            if user in hub_tier:
                count = int(
                    profile.hub_tweets * profile.hub_tweets_decay ** hub_tier[user]
                )
            else:
                count = int(rng.lognormvariate(
                    profile.activity_log_mean, profile.activity_log_sigma
                ))
            for _ in range(count):
                timestamp = rng.uniform(0.0, profile.horizon)
                pairs, text = self._compose_tweet(
                    synthetic_kb, interests[user], timeline, timestamp, rng
                )
                raw.append((timestamp, user, interned.mentions(pairs), text))
        raw.sort(key=lambda item: item[0])
        return [
            Tweet(
                tweet_id=tweet_id,
                user=user,
                timestamp=timestamp,
                text=text,
                mentions=mentions,
            )
            for tweet_id, (timestamp, user, mentions, text) in enumerate(raw)
        ]

    def _compose_tweet(
        self,
        synthetic_kb: SyntheticKB,
        interest_row: np.ndarray,
        timeline: EventTimeline,
        timestamp: float,
        rng: random.Random,
    ) -> Tuple[List[Tuple[str, int]], str]:
        profile = self._profile
        topic = self._sample_topic(interest_row, timeline, timestamp, rng)
        num_mentions = 1
        while (
            num_mentions < profile.max_mentions_per_tweet
            and rng.random() < profile.extra_mention_rate
        ):
            num_mentions += 1
        pairs: List[Tuple[str, int]] = []
        words: List[str] = []
        for _ in range(num_mentions):
            entity_id = rng.choice(synthetic_kb.topic_entities[topic])
            surface = self._pick_surface(synthetic_kb, entity_id, rng)
            pairs.append((surface, entity_id))
            words.append(surface)
        topic_words = synthetic_kb.topic_vocab[topic]
        common_words = synthetic_kb.common_vocab
        words.extend(
            rng.choice(topic_words)
            if rng.random() < profile.topic_word_rate
            else rng.choice(common_words)
            for _ in range(profile.context_words)
        )
        rng.shuffle(words)
        return pairs, " ".join(words)

    def _sample_topic(
        self,
        interest_row: np.ndarray,
        timeline: EventTimeline,
        timestamp: float,
        rng: random.Random,
    ) -> int:
        """Interest distribution re-weighted by active burst events."""
        boosted = [
            float(interest_row[topic]) * timeline.topic_boost(topic, timestamp)
            for topic in range(len(interest_row))
        ]
        total = sum(boosted)
        threshold = rng.random() * total
        cumulative = 0.0
        for topic, weight in enumerate(boosted):
            cumulative += weight
            if threshold < cumulative:
                return topic
        return len(boosted) - 1

    def _pick_surface(
        self, synthetic_kb: SyntheticKB, entity_id: int, rng: random.Random
    ) -> str:
        """Choose the surface string used to mention ``entity_id``.

        Prefers the entity's ambiguous shared surface (when it has one) with
        ``ambiguous_mention_rate`` probability — ambiguous mentions are the
        interesting evaluation cases — and injects an occasional typo.
        """
        profile = self._profile
        surfaces = list(synthetic_kb.kb.surfaces_of(entity_id))
        ambiguous = [
            s for s in surfaces if s in synthetic_kb.ambiguous_surfaces
        ]
        if ambiguous and rng.random() < profile.ambiguous_mention_rate:
            surface = rng.choice(ambiguous)
        else:
            surface = rng.choice(surfaces)
        if rng.random() < profile.typo_rate and len(surface) > 3:
            surface = self._typo(surface, rng, profile.typo_kinds)
        return surface

    @staticmethod
    def _typo(surface: str, rng: random.Random, kinds: str = "substitute") -> str:
        """One random typo.  Spaces are never touched.

        ``kinds="substitute"`` (default) draws exactly two values from the
        main RNG stream, which keeps the default worlds bit-identical
        across library versions — the calibrated benchmark shapes depend
        on that.  ``kinds="all"`` adds insert / delete / transpose via a
        child RNG (one extra main-stream draw in total): substitutions,
        insertions and deletions sit at Levenshtein distance 1 and are
        recoverable by the fuzzy candidate index; adjacent transpositions
        cost 2 and usually are not — realistic unrecoverable noise.
        """
        positions = [i for i, ch in enumerate(surface) if ch != " "]
        position = rng.choice(positions)
        letters = "abcdefghijklmnopqrstuvwxyz"
        if kinds == "substitute":
            replacement = rng.choice(letters)
            return surface[:position] + replacement + surface[position + 1 :]
        if kinds != "all":
            raise ValueError(f"unknown typo kinds {kinds!r}")
        child = random.Random(rng.randrange(2**30))
        kind = child.random()
        if kind < 0.55:  # substitution — the dominant fat-finger error
            return surface[:position] + child.choice(letters) + surface[position + 1 :]
        if kind < 0.75:  # insertion
            return surface[:position] + child.choice(letters) + surface[position:]
        if kind < 0.9 and len(positions) > 3:  # deletion
            return surface[:position] + surface[position + 1 :]
        # adjacent transposition (falls back to substitution at the edge)
        if position + 1 < len(surface) and surface[position + 1] != " ":
            return (
                surface[:position]
                + surface[position + 1]
                + surface[position]
                + surface[position + 2 :]
            )
        return surface[:position] + child.choice(letters) + surface[position + 1 :]


def follow_graph(num_users: int, seed: int) -> DiGraph:
    """A topical follow graph without a KB or a stream: ``num_users``
    users (hubs first) over the default KB's topics, drawn as a world's
    are, from ``Random(seed)``, followed by each other per
    :func:`topical_social_graph` with ``Random(seed + 1)``."""
    generator = TweetStreamGenerator(stream_profile=StreamProfile(num_users=num_users))
    num_topics = KBProfile().num_topics
    interests, hubs = generator._make_users(num_topics, random.Random(seed))
    return topical_social_graph(interests, hubs, random.Random(seed + 1))
