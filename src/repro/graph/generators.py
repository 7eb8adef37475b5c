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


@dataclasses.dataclass(frozen=True)
class SocialGraphConfig:
    """Knobs of :func:`topical_social_graph`."""

    #: Number of hub (celebrity/official) accounts per topic.
    hubs_per_topic: int = 2
    #: Probability a user follows each hub of a topic, scaled by her
    #: interest in that topic.
    hub_follow_scale: float = 3.0
    #: Expected number of same-interest peers each user follows.
    peers_per_user: float = 6.0
    #: Expected number of uniformly random follows per user (weak ties that
    #: create the small-world shortcuts).
    random_per_user: float = 2.0
    #: Fraction of non-hub users who are socially passive information
    #: seekers: they follow at most one or two accounts, so the social
    #: interest signal is silent for them (the population the paper's
    #: recency/popularity features exist for).
    isolation_rate: float = 0.25


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
    config: SocialGraphConfig = SocialGraphConfig(),
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
        if user not in hub_set and rng.random() < config.isolation_rate:
            # Passive information seeker: at most a couple of weak follows.
            for _ in range(rng.randint(0, 2)):
                other = rng.randrange(num_users)
                if other != user:
                    edges.append((user, other))
            continue
        # 1. follow topic hubs proportionally to interest
        for topic in range(num_topics):
            probability = min(1.0, config.hub_follow_scale * float(row[topic]))
            for hub in hubs[topic]:
                if hub != user and rng.random() < probability:
                    edges.append((user, hub))
        if user in hub_set:
            continue  # hubs follow almost nobody, like real official accounts
        # 2. homophilous peers: sample topics from the interest row, then a
        #    peer whose dominant topic matches
        n_peers = _poisson_like(config.peers_per_user, rng)
        for _ in range(n_peers):
            topic = _sample_topic(row, rng)
            bucket = by_topic[topic]
            if len(bucket) > 1:
                peer = bucket[rng.randrange(len(bucket))]
                if peer != user:
                    edges.append((user, peer))
        # 3. weak ties
        n_random = _poisson_like(config.random_per_user, rng)
        for _ in range(n_random):
            other = rng.randrange(num_users)
            if other != user:
                edges.append((user, other))
    return DiGraph(num_users, edges)


# ---------------------------------------------------------------------- #
# streaming million-user worlds (docs/scaling.md)
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class StreamingWorldProfile:
    """Knobs of the streaming hub/faction follow-graph + tweet generator.

    Built for the 100k–1M-user scale tiers: everything about a user —
    faction membership, followees, tweets — is derived from a per-user
    seeded RNG and O(1) arithmetic over the profile, so the world can be
    emitted user by user without materializing any global state.  The id
    layout is positional: ids ``[0, global_hubs)`` are bandwagon
    celebrities everyone may follow, the next ``num_factions *
    faction_hubs`` ids are faction hub accounts, and every remaining id
    belongs to faction ``(id - num_hubs) % num_factions``.
    """

    #: Total users (nodes of the follow graph).
    num_users: int = 100_000
    #: Number of interest factions (communities).
    num_factions: int = 64
    #: Hub (celebrity) accounts per faction.
    faction_hubs: int = 2
    #: Global celebrity accounts followed across factions.
    global_hubs: int = 8
    #: Base probability of following a global hub; scaled per hub by the
    #: bandwagon weight ``1 / sqrt(1 + hub_rank)`` (earlier hubs are the
    #: established celebrities, so they keep attracting more followers).
    global_hub_follow_prob: float = 0.12
    #: Probability of following each hub of the user's own faction.
    faction_hub_follow_prob: float = 0.5
    #: Expected members a faction hub follows *back* (Poisson).  Follow-backs
    #: make hubs transit nodes instead of pure sinks — member→hub→member
    #: paths exist, matching real mutual-follow behavior and keeping 2-hop
    #: labels hub-dominated (landmarks on actual shortest paths) instead of
    #: mesh-sized.
    hub_follow_back: float = 12.0
    #: Probability a global hub follows the first hub of each faction (the
    #: "celebrities follow insiders" edges that put global hubs on
    #: cross-faction shortest paths).
    global_hub_insider_prob: float = 0.25
    #: Expected intra-faction peer follows per user (Poisson).
    peers_per_user: float = 4.0
    #: Expected uniformly random follows per user (weak ties).
    weak_ties_per_user: float = 1.0
    #: Fraction of users who are passive lurkers (0–2 follows, no signal).
    lurker_rate: float = 0.25
    #: Expected tweets per regular user over the horizon (Poisson).
    tweets_per_user: float = 2.0
    #: Multiplier on ``tweets_per_user`` for hub accounts.
    hub_tweet_multiplier: float = 20.0
    #: Entities mentioned per faction; tweet entity ids are
    #: ``faction * entities_per_faction + rank`` with a popularity skew.
    entities_per_faction: int = 12
    #: Stream horizon in seconds.
    horizon: float = 30 * DAY
    #: Master seed; each user derives an independent sub-seed from it.
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_users <= self.num_hubs:
            raise ValueError(
                f"num_users={self.num_users} must exceed the "
                f"{self.num_hubs} hub accounts"
            )
        if self.num_factions < 1 or self.faction_hubs < 0 or self.global_hubs < 0:
            raise ValueError("faction/hub counts must be positive")
        if not 0.0 <= self.lurker_rate <= 1.0:
            raise ValueError("lurker_rate must be in [0, 1]")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.entities_per_faction < 1:
            raise ValueError("entities_per_faction must be at least 1")

    @property
    def num_hubs(self) -> int:
        return self.global_hubs + self.num_factions * self.faction_hubs

    @property
    def num_entities(self) -> int:
        return self.num_factions * self.entities_per_faction

    def faction_of(self, user: int) -> int:
        """Faction of any non-global-hub user id (O(1) arithmetic)."""
        if user < self.global_hubs:
            raise ValueError(f"user {user} is a global hub, not in a faction")
        if user < self.num_hubs:
            return (user - self.global_hubs) // self.faction_hubs
        return (user - self.num_hubs) % self.num_factions

    def faction_member(self, faction: int, index: int) -> int:
        """``index``-th regular member of ``faction``."""
        return self.num_hubs + faction + index * self.num_factions

    def faction_size(self, faction: int) -> int:
        """Number of regular (non-hub) members of ``faction``."""
        regular = self.num_users - self.num_hubs
        return (regular - faction + self.num_factions - 1) // self.num_factions


@dataclasses.dataclass(frozen=True)
class StreamingChunk:
    """One consumable block of the streaming world: users ``[start, stop)``
    with their follow edges and ``(timestamp, user, entity)`` tweet events."""

    start: int
    stop: int
    edges: Tuple[Tuple[int, int], ...]
    tweets: Tuple[Tuple[float, int, int], ...]


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

    if user < profile.global_hubs:
        # celebrities follow a couple of each other plus faction insiders
        for other in range(profile.global_hubs):
            if other != user and rng.random() < 0.3:
                follow(other)
        for faction in range(profile.num_factions):
            if profile.faction_hubs and (
                rng.random() < profile.global_hub_insider_prob
            ):
                follow(profile.global_hubs + faction * profile.faction_hubs)
        return edges
    if user < profile.num_hubs:
        # faction hubs follow the global celebrities and — crucially for
        # both realism and index size — a sample of their own members
        for rank in range(profile.global_hubs):
            weight = 1.0 / math.sqrt(1.0 + rank)
            if rng.random() < profile.global_hub_follow_prob * weight:
                follow(rank)
        faction = profile.faction_of(user)
        size = profile.faction_size(faction)
        if size:
            for _ in range(_poisson_like(profile.hub_follow_back, rng)):
                # follow-backs target the faction's mini-hubs (same
                # quadratic skew as peer follows), closing the
                # member→hub→mini-hub→member transit loops
                follow(profile.faction_member(faction, int(size * rng.random() ** 2)))
        return edges
    if rng.random() < profile.lurker_rate:
        # passive information seeker: at most a couple of random follows
        for _ in range(rng.randint(0, 2)):
            target = rng.randrange(profile.num_users)
            if target != user:
                follow(target)
        return edges
    faction = profile.faction_of(user)
    # 1. bandwagon: global hubs, rank-skewed (the earlier the hotter)
    for rank in range(profile.global_hubs):
        weight = 1.0 / math.sqrt(1.0 + rank)
        if rng.random() < profile.global_hub_follow_prob * weight:
            follow(rank)
    # 2. own faction's hub accounts
    first_hub = profile.global_hubs + faction * profile.faction_hubs
    for hub in range(first_hub, first_hub + profile.faction_hubs):
        if rng.random() < profile.faction_hub_follow_prob:
            follow(hub)
    # 3. intra-faction peers (homophily) with a bandwagon skew: the
    #    quadratic transform concentrates follows on each faction's
    #    low-index members, who become mini-hubs with heavy in-degree —
    #    the preferential-attachment shape of real follow graphs (and what
    #    keeps 2-hop labels hub-dominated instead of mesh-sized)
    size = profile.faction_size(faction)
    if size > 1:
        for _ in range(_poisson_like(profile.peers_per_user, rng)):
            peer = profile.faction_member(faction, int(size * rng.random() ** 2))
            if peer != user:
                follow(peer)
    # 4. weak ties across the whole graph (small-world shortcuts)
    for _ in range(_poisson_like(profile.weak_ties_per_user, rng)):
        target = rng.randrange(profile.num_users)
        if target != user:
            follow(target)
    return edges


def _user_tweets(
    profile: StreamingWorldProfile, user: int
) -> List[Tuple[float, int, int]]:
    rng = _user_rng(profile, user, stream=1)
    mean = profile.tweets_per_user
    if user < profile.num_hubs:
        mean *= profile.hub_tweet_multiplier
    count = _poisson_like(mean, rng)
    if not count:
        return []
    if user < profile.global_hubs:
        faction = rng.randrange(profile.num_factions)
    else:
        faction = profile.faction_of(user)
    tweets: List[Tuple[float, int, int]] = []
    for _ in range(count):
        timestamp = rng.random() * profile.horizon
        # popularity skew inside the faction's entity slate: rank 0 is the
        # head entity, the tail thins out quadratically
        rank = int(profile.entities_per_faction * rng.random() ** 2)
        entity = faction * profile.entities_per_faction + min(
            rank, profile.entities_per_faction - 1
        )
        tweets.append((timestamp, user, entity))
    tweets.sort()
    return tweets


def stream_user_chunks(
    profile: StreamingWorldProfile, chunk_size: int = 10_000
) -> Iterator[StreamingChunk]:
    """Yield the world in bounded user blocks.

    Peak memory is O(chunk) — the 100k-tier tracemalloc test pins this.
    Because every user's output depends only on (seed, user id), the
    concatenation of chunks is byte-identical for *any* chunk size and to
    the eager :func:`stream_follow_edges` / :func:`stream_tweet_events`.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    for start in range(0, profile.num_users, chunk_size):
        stop = min(start + chunk_size, profile.num_users)
        edges: List[Tuple[int, int]] = []
        tweets: List[Tuple[float, int, int]] = []
        for user in range(start, stop):
            edges.extend(_user_edges(profile, user))
            tweets.extend(_user_tweets(profile, user))
        yield StreamingChunk(start, stop, tuple(edges), tuple(tweets))


def stream_follow_edges(
    profile: StreamingWorldProfile,
) -> Iterator[Tuple[int, int]]:
    """All follow edges ``(follower, followee)``, user-major order."""
    for user in range(profile.num_users):
        yield from _user_edges(profile, user)


def stream_tweet_events(
    profile: StreamingWorldProfile,
) -> Iterator[Tuple[float, int, int]]:
    """All ``(timestamp, user, entity)`` events, user-major order
    (timestamps sort within a user, not globally — consumers needing a
    global time order merge chunks, which stays O(chunk) per step)."""
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
