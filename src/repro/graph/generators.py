"""Synthetic followee-follower networks.

The paper's experiments run on crawled Twitter / Sina Weibo follow graphs
which we cannot obtain; these generators build graphs with the structural
properties the linker actually exploits (DESIGN.md §2):

* **topical hubs** — per-topic celebrity accounts (the @NBAOfficial of the
  example) that users interested in that topic follow with high probability;
* **homophily** — users follow other users with similar topic interests;
* **preferential attachment** — a heavy-tailed in-degree distribution,
  matching the huge max-degree rows of Table 5;
* **small-world reach** — most user pairs connect within ~4 hops.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DAY
from repro.graph.digraph import DiGraph


# Constants of :func:`topical_social_graph`.
#: Number of hub (celebrity/official) accounts per topic.
HUBS_PER_TOPIC = 2
#: Probability a user follows each hub of a topic, scaled by the user's
#: interest in that topic.
HUB_FOLLOW_SCALE = 3.0
#: Expected number of same-interest peers each user follows.
PEERS_PER_USER = 6.0
#: Expected number of uniformly random follows per user (weak ties that
#: create the small-world shortcuts).
RANDOM_PER_USER = 2.0
#: Fraction of non-hub users who are socially passive information seekers:
#: they follow at most one or two accounts, so the social interest signal
#: is silent for them (the population the paper's recency/popularity
#: features exist for).
ISOLATION_RATE = 0.25


def random_digraph(
    num_nodes: int, num_edges: int, rng: Optional[random.Random] = None
) -> DiGraph:
    """Uniform random directed graph (no self-loops, simple edges).

    Used by tests and micro-benchmarks where topical structure is noise.
    """
    rng = rng or random.Random(0)
    max_edges = num_nodes * (num_nodes - 1)
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} edges on {num_nodes} nodes")
    edges: Dict[Tuple[int, int], None] = {}  # distinct, in draw order
    while len(edges) < num_edges:
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v:
            edges[u, v] = None
    return DiGraph(num_nodes, edges)


def topical_social_graph(
    interests: np.ndarray,
    hubs: Sequence[Sequence[int]],
    rng: Optional[random.Random] = None,
) -> DiGraph:
    """Build a followee-follower network from user interest vectors.

    Parameters
    ----------
    interests:
        ``(num_users, num_topics)`` row-stochastic matrix; row ``u`` is user
        ``u``'s latent topic-interest distribution (shared with the tweet
        generator so the social signal genuinely predicts tweet content).
    hubs:
        ``hubs[topic]`` lists the user ids acting as hub accounts of that
        topic.  Hub users typically have a concentrated interest row.
    """
    rng = rng or random.Random(0)
    num_users, num_topics = interests.shape
    if len(hubs) != num_topics:
        raise ValueError(f"expected {num_topics} hub lists, got {len(hubs)}")
    edges: List[Tuple[int, int]] = []
    hub_set = {h for topic_hubs in hubs for h in topic_hubs}

    # Pre-bucket users by dominant topic for homophilous peer sampling.
    dominant = np.argmax(interests, axis=1)
    by_topic: List[List[int]] = [[] for _ in range(num_topics)]
    for user in range(num_users):
        by_topic[int(dominant[user])].append(user)

    for user in range(num_users):
        row = interests[user]
        if user not in hub_set and rng.random() < ISOLATION_RATE:
            # Passive information seeker: at most a couple of weak follows.
            for _ in range(rng.randint(0, 2)):
                other = rng.randrange(num_users)
                if other != user:
                    edges.append((user, other))
            continue
        # 1. follow topic hubs proportionally to interest
        for topic in range(num_topics):
            probability = min(1.0, HUB_FOLLOW_SCALE * float(row[topic]))
            for hub in hubs[topic]:
                if hub != user and rng.random() < probability:
                    edges.append((user, hub))
        if user in hub_set:
            continue  # hubs follow almost nobody, like real official accounts
        # 2. homophilous peers: sample topics from the interest row, then a
        #    peer whose dominant topic matches
        n_peers = _poisson_like(PEERS_PER_USER, rng)
        for _ in range(n_peers):
            topic = _sample_topic(row, rng)
            bucket = by_topic[topic]
            if len(bucket) > 1:
                peer = bucket[rng.randrange(len(bucket))]
                if peer != user:
                    edges.append((user, peer))
        # 3. weak ties
        n_random = _poisson_like(RANDOM_PER_USER, rng)
        for _ in range(n_random):
            other = rng.randrange(num_users)
            if other != user:
                edges.append((user, other))
    return DiGraph(num_users, edges)


# ---------------------------------------------------------------------- #
# streaming million-user worlds (docs/scaling.md)
# ---------------------------------------------------------------------- #
# Constants of the streaming hub/faction worlds.  The id layout is
# positional: ids ``[0, GLOBAL_HUBS)`` are bandwagon celebrities everyone
# may follow, the next ``num_factions * FACTION_HUBS`` ids are faction hub
# accounts, and every remaining id belongs to faction
# ``(id - num_hubs) % num_factions``.
#: Hub (celebrity) accounts per faction.
FACTION_HUBS = 2
#: Global celebrity accounts followed across factions.
GLOBAL_HUBS = 8
#: Base probability of following a global hub; scaled per hub by the
#: bandwagon weight ``1 / sqrt(1 + hub_rank)`` (earlier hubs are the
#: established celebrities, so they keep attracting more followers).
GLOBAL_HUB_FOLLOW_PROB = 0.12
#: Probability of following each hub of the user's own faction.
FACTION_HUB_FOLLOW_PROB = 0.5
#: Expected members a faction hub follows *back* (Poisson).  Follow-backs
#: make hubs transit nodes instead of pure sinks — member→hub→member paths
#: exist, matching real mutual-follow behavior and keeping 2-hop labels
#: hub-dominated (landmarks on actual shortest paths) instead of mesh-sized.
HUB_FOLLOW_BACK = 12.0
#: Probability a global hub follows the first hub of each faction (the
#: "celebrities follow insiders" edges that put global hubs on
#: cross-faction shortest paths).
GLOBAL_HUB_INSIDER_PROB = 0.25
#: Expected intra-faction peer follows per user (Poisson).
FACTION_PEERS_PER_USER = 4.0
#: Expected uniformly random follows per user (weak ties).
WEAK_TIES_PER_USER = 1.0
#: Fraction of users who are passive lurkers (0–2 follows, no signal).
LURKER_RATE = 0.25
#: Expected tweets per regular user over the horizon (Poisson).
TWEETS_PER_USER = 2.0
#: Multiplier on ``TWEETS_PER_USER`` for hub accounts.
HUB_TWEET_MULTIPLIER = 20.0
#: Entities mentioned per faction; tweet entity ids are
#: ``faction * ENTITIES_PER_FACTION + rank`` with a popularity skew.
ENTITIES_PER_FACTION = 12
#: Stream horizon in seconds.
STREAMING_HORIZON = 30 * DAY


@dataclasses.dataclass(frozen=True)
class StreamingWorldProfile:
    """Size and seed of a streaming hub/faction follow-graph + tweet world.

    Built for the 100k–1M-user scale tiers: everything about a user —
    faction membership, followees, tweets — is derived from a per-user
    seeded RNG and O(1) arithmetic over the profile, so the world can be
    emitted user by user without materializing any global state.
    """

    #: Total users (nodes of the follow graph).
    num_users: int = 100_000
    #: Number of interest factions (communities).
    num_factions: int = 64
    #: Master seed; each user derives an independent sub-seed from it.
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_factions < 1:
            raise ValueError("num_factions must be at least 1")
        if self.num_users <= self.num_hubs:
            raise ValueError(
                f"num_users={self.num_users} must exceed the "
                f"{self.num_hubs} hub accounts"
            )

    @property
    def num_hubs(self) -> int:
        return GLOBAL_HUBS + self.num_factions * FACTION_HUBS

    def faction_of(self, user: int) -> int:
        """Faction of any non-global-hub user id (O(1) arithmetic)."""
        if user < GLOBAL_HUBS:
            raise ValueError(f"user {user} is a global hub, not in a faction")
        if user < self.num_hubs:
            return (user - GLOBAL_HUBS) // FACTION_HUBS
        return (user - self.num_hubs) % self.num_factions

    def faction_member(self, faction: int, index: int) -> int:
        """``index``-th regular member of ``faction``."""
        return self.num_hubs + faction + index * self.num_factions

    def faction_size(self, faction: int) -> int:
        """Number of regular (non-hub) members of ``faction``."""
        regular = self.num_users - self.num_hubs
        return (regular - faction + self.num_factions - 1) // self.num_factions


def _user_rng(profile: StreamingWorldProfile, user: int, stream: int) -> random.Random:
    """Independent deterministic RNG per (user, stream).

    ``seed * C + user`` is injective for ``user < C``, so distinct users
    never share a sub-seed under one master seed; ``stream`` separates the
    edge draw sequence from the tweet draw sequence, which is what makes
    the two iterators independently consumable (reading one never shifts
    the other).  Plain int arithmetic, never ``hash()`` — str hashing is
    salted per process and would break cross-run determinism.
    """
    return random.Random((profile.seed * 2 + stream) * 1_000_003 + user)


def _user_edges(
    profile: StreamingWorldProfile, user: int
) -> List[Tuple[int, int]]:
    rng = _user_rng(profile, user, stream=0)
    followed = {user}
    edges: List[Tuple[int, int]] = []

    def follow(target: int) -> None:
        if target not in followed:
            followed.add(target)
            edges.append((user, target))

    if user < GLOBAL_HUBS:
        # celebrities follow a couple of each other plus faction insiders
        for other in range(GLOBAL_HUBS):
            if other != user and rng.random() < 0.3:
                follow(other)
        for faction in range(profile.num_factions):
            if rng.random() < GLOBAL_HUB_INSIDER_PROB:
                follow(GLOBAL_HUBS + faction * FACTION_HUBS)
        return edges
    if user < profile.num_hubs:
        # faction hubs follow the global celebrities and — crucially for
        # both realism and index size — a sample of their own members
        for rank in range(GLOBAL_HUBS):
            weight = 1.0 / math.sqrt(1.0 + rank)
            if rng.random() < GLOBAL_HUB_FOLLOW_PROB * weight:
                follow(rank)
        faction = profile.faction_of(user)
        size = profile.faction_size(faction)
        if size:
            for _ in range(_poisson_like(HUB_FOLLOW_BACK, rng)):
                # follow-backs target the faction's mini-hubs (same
                # quadratic skew as peer follows), closing the
                # member→hub→mini-hub→member transit loops
                follow(profile.faction_member(faction, int(size * rng.random() ** 2)))
        return edges
    if rng.random() < LURKER_RATE:
        # passive information seeker: at most a couple of random follows
        for _ in range(rng.randint(0, 2)):
            target = rng.randrange(profile.num_users)
            if target != user:
                follow(target)
        return edges
    faction = profile.faction_of(user)
    # 1. bandwagon: global hubs, rank-skewed (the earlier the hotter)
    for rank in range(GLOBAL_HUBS):
        weight = 1.0 / math.sqrt(1.0 + rank)
        if rng.random() < GLOBAL_HUB_FOLLOW_PROB * weight:
            follow(rank)
    # 2. own faction's hub accounts
    first_hub = GLOBAL_HUBS + faction * FACTION_HUBS
    for hub in range(first_hub, first_hub + FACTION_HUBS):
        if rng.random() < FACTION_HUB_FOLLOW_PROB:
            follow(hub)
    # 3. intra-faction peers (homophily) with a bandwagon skew: the
    #    quadratic transform concentrates follows on each faction's
    #    low-index members, who become mini-hubs with heavy in-degree —
    #    the preferential-attachment shape of real follow graphs (and what
    #    keeps 2-hop labels hub-dominated instead of mesh-sized)
    size = profile.faction_size(faction)
    if size > 1:
        for _ in range(_poisson_like(FACTION_PEERS_PER_USER, rng)):
            peer = profile.faction_member(faction, int(size * rng.random() ** 2))
            if peer != user:
                follow(peer)
    # 4. weak ties across the whole graph (small-world shortcuts)
    for _ in range(_poisson_like(WEAK_TIES_PER_USER, rng)):
        target = rng.randrange(profile.num_users)
        if target != user:
            follow(target)
    return edges


def _user_tweets(
    profile: StreamingWorldProfile, user: int
) -> List[Tuple[float, int, int]]:
    rng = _user_rng(profile, user, stream=1)
    mean = TWEETS_PER_USER
    if user < profile.num_hubs:
        mean *= HUB_TWEET_MULTIPLIER
    count = _poisson_like(mean, rng)
    if not count:
        return []
    if user < GLOBAL_HUBS:
        faction = rng.randrange(profile.num_factions)
    else:
        faction = profile.faction_of(user)
    tweets: List[Tuple[float, int, int]] = []
    for _ in range(count):
        timestamp = rng.random() * STREAMING_HORIZON
        # popularity skew inside the faction's entity slate: rank 0 is the
        # head entity, the tail thins out quadratically
        rank = int(ENTITIES_PER_FACTION * rng.random() ** 2)
        entity = faction * ENTITIES_PER_FACTION + min(rank, ENTITIES_PER_FACTION - 1)
        tweets.append((timestamp, user, entity))
    tweets.sort()
    return tweets


def stream_follow_edges(
    profile: StreamingWorldProfile,
) -> Iterator[Tuple[int, int]]:
    """All follow edges ``(follower, followee)``, user-major order.

    Each user's edges depend only on ``(seed, user id)`` and are drawn
    when the iterator reaches that user, so streaming a world holds one
    user's edges at a time, never the world's.
    """
    for user in range(profile.num_users):
        yield from _user_edges(profile, user)


def stream_tweet_events(
    profile: StreamingWorldProfile,
) -> Iterator[Tuple[float, int, int]]:
    """All ``(timestamp, user, entity)`` events, user-major order
    (timestamps sort within a user, not globally), drawn one user at a
    time like :func:`stream_follow_edges`."""
    for user in range(profile.num_users):
        yield from _user_tweets(profile, user)


def streaming_world_graph(profile: StreamingWorldProfile) -> DiGraph:
    """Materialize just the follow graph (the index build input); tweet
    events stay streamable."""
    return DiGraph(profile.num_users, stream_follow_edges(profile))


def _sample_topic(row: np.ndarray, rng: random.Random) -> int:
    """Sample a topic index from a probability row using ``rng``."""
    threshold = rng.random()
    cumulative = 0.0
    for topic, probability in enumerate(row):
        cumulative += float(probability)
        if threshold < cumulative:
            return topic
    return len(row) - 1


def _poisson_like(mean: float, rng: random.Random) -> int:
    """Small-mean Poisson sample via inversion (keeps ``random.Random``)."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    product = rng.random()
    count = 0
    while product > limit:
        product *= rng.random()
        count += 1
    return count
