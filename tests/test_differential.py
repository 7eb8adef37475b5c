"""One differential harness for every decision-identity claim.

The paper links each mention independently (Sec. 3.2.2), so neither the
index that answers Eq. 4, batching, score caching nor the linker's age may
change a ``ranked`` tuple.  Every script runs through a lattice of 24
configurations, each over its own copy of the world:

- provider: the closure or the compact cover, built at the world's
  ``max_hops`` by the builder ``build_reachability_index`` dispatches to;
- call path: ``link()`` per op, or one ``MicroBatchLinker.link_batch`` per
  maximal run of consecutive link ops;
- ``score_caching`` off or on;
- lifetime: one *warm* linker for the whole script, a *fresh* one per link
  op over the same CKB, or one *rebuilt* per link op over
  ``restore(kb, snapshot(ckb), n)``.  Confirms go through the warm linker;
  after each, every ``U*_e`` set it holds must rescan to what
  ``influential_users_by_definition`` sorts out of all of ``U_e``.

Every configuration must give the first one's (closure · link · uncached ·
warm) ``ranked`` tuples and ``degradation`` values op by op, refuse the
same unknown authors and end with the same ``list(ckb.iter_links())``.
The follow graph is immutable, so no script edits it.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, List, NamedTuple, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DAY, DEFAULT_MAX_HOPS, RELATEDNESS_THRESHOLD, LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import SocialTemporalLinker
from repro.core.recency import RecencyPropagationNetwork
from repro.errors import UnknownUserError
from repro.graph.compact_labels import build_compact_two_hop_cover
from repro.graph.digraph import DiGraph
from repro.graph.transitive_closure import build_transitive_closure_incremental
from repro.kb.checkpoint import restore, snapshot
from repro.obs.metrics import METRICS
from repro.testing.oracles import OnlineReachability, influential_users_by_definition

from conftest import JORDAN_LINKS, build_tiny_ckb, build_tiny_kb, jordan_world


class Configuration(NamedTuple):
    provider: str
    path: str
    caching: bool
    lifetime: str

    def __str__(self) -> str:
        cached = "cached" if self.caching else "uncached"
        return f"{self.provider}·{self.path}·{cached}·{self.lifetime}"


LATTICE = [
    Configuration(*point)
    for point in itertools.product(
        ("closure", "compact"),
        ("link", "batch"),
        (False, True),
        ("warm", "fresh", "rebuilt"),
    )
]

#: The two shipped providers by name, each built as ``builder(graph, max_hops)``.
PROVIDERS = {
    "closure": build_transitive_closure_incremental,
    "compact": build_compact_two_hop_cover,
}

#: (recency_propagation, influence_method): the world parameters scripts vary.
VARIANTS = list(itertools.product((True, False), ("entropy", "tfidf")))


class World(NamedTuple):
    """``build()`` makes one copy: ``(ckb, graph, propagation network or
    None)``; a network is shared only where the script leaves the KB alone."""

    build: Callable[[], tuple]
    config: LinkerConfig
    max_hops: int = DEFAULT_MAX_HOPS


def variant(world: World, propagation: bool, method: str) -> World:
    config = dataclasses.replace(
        world.config, recency_propagation=propagation, influence_method=method
    )
    return world._replace(config=config)


#: What a refused op (an author outside the follow graph) returns.
REFUSED = "UnknownUserError"

# A script is a list of ops:
#   ("link", surface, user, now)
#   ("confirm", entity, user, now)        through the warm linker
#   ("write", entity, user, now)          ckb.link_tweet
#   ("bulk", ((entity, user, now), ...))  ckb.bulk_link
#   ("surface", surface, entity)          candidate_generator.register_surface


class Run(NamedTuple):
    outcomes: list
    links: list


def run(world: World, script: Sequence[tuple], configuration: Configuration) -> Run:
    """Play ``script`` on a new copy of ``world`` under ``configuration``."""
    ckb, graph, network = world.build()
    config = dataclasses.replace(world.config, score_caching=configuration.caching)
    index = PROVIDERS[configuration.provider](graph, world.max_hops)

    def new_linker(over) -> SocialTemporalLinker:
        return SocialTemporalLinker(
            over, graph, config=config, reachability=index, propagation_network=network
        )

    warm = new_linker(ckb)

    def linker() -> SocialTemporalLinker:
        if configuration.lifetime == "warm":
            return warm
        if configuration.lifetime == "fresh":
            return new_linker(ckb)
        return new_linker(restore(ckb.kb, snapshot(ckb), graph.num_nodes))

    def known(user: int) -> bool:
        return 0 <= user < graph.num_nodes

    def refused(ops: object, call: Callable[[], object]) -> str:
        """``call`` raises ``UnknownUserError``, having written and counted nothing."""
        before = (list(ckb.iter_links()), METRICS.counter("link.requests"))
        try:
            call()
        except UnknownUserError:
            after = (list(ckb.iter_links()), METRICS.counter("link.requests"))
            assert after == before, f"{configuration} wrote or counted {ops}"
            return REFUSED
        raise AssertionError(f"{configuration} did not refuse {ops}")

    def link_batch(ops: List[tuple]) -> list:
        requests = [LinkRequest(*op[1:]) for op in ops]
        accepted = [request for request in requests if known(request.user)]
        if len(accepted) < len(requests):
            # one unknown author refuses the whole batch; the rest is then
            # linked as one batch without it
            refused(ops, lambda: MicroBatchLinker(linker()).link_batch(requests))
        results = iter(MicroBatchLinker(linker()).link_batch(accepted))
        outcomes = []
        for request in requests:
            if known(request.user):
                result = next(results)
                outcomes.append((result.ranked, result.degradation))
            else:
                outcomes.append(REFUSED)
        return outcomes

    def apply(op: tuple) -> object:
        kind, *args = op
        if kind == "link":
            surface, user, now = args
            if not known(user):
                return refused(op, lambda: linker().link(surface, user, now))
            result = linker().link(surface, user, now)
            return result.ranked, result.degradation
        if kind == "confirm":
            if not known(args[1]):
                return refused(op, lambda: warm.confirm_link(*args))
            warm.confirm_link(*args)
            # every set the warm linker holds rescans to the definition's sets
            k, method = config.influential_users, config.influence_method
            for held in list(warm._influential_cache):
                assert warm.influential_users(held) == {
                    e: influential_users_by_definition(ckb, e, held, k, method)
                    for e in held
                }, f"{configuration}: U*_e of {held} after {op}"
        elif kind == "write":
            ckb.link_tweet(*args)
        elif kind == "bulk":
            ckb.bulk_link((*row, -1) for row in args[0])
        else:
            assert kind == "surface", op
            warm.candidate_generator.register_surface(*args)
        return None

    outcomes: list = []
    for kind, group in itertools.groupby(script, key=lambda op: op[0]):
        if kind == "link" and configuration.path == "batch":
            outcomes.extend(link_batch(list(group)))
        else:
            outcomes.extend(apply(op) for op in group)
    return Run(outcomes, list(ckb.iter_links()))


def check(world: World, script: Sequence[tuple]) -> Run:
    """Run ``script`` through every configuration, assert each equals the
    first, and return that reference run."""
    reference = run(world, script, LATTICE[0])
    for configuration in LATTICE[1:]:
        got = run(world, script, configuration)
        for position, (want, have) in enumerate(zip(reference.outcomes, got.outcomes)):
            assert have == want, (
                f"{configuration} differs from {LATTICE[0]} at op {position} of "
                f"{list(script[: position + 1])}:\n  got  {have}\n  want {want}"
            )
        assert got.links == reference.links, (
            f"{configuration} ends with other links than {LATTICE[0]}: {list(script)}"
        )
    return reference


def fig1(
    num_nodes: int, edges, relatedness_threshold: float = RELATEDNESS_THRESHOLD
) -> Callable[[], tuple]:
    """The Fig. 1 KB and CKB (``conftest.build_tiny_ckb``) over a follow
    graph, with a recency network over that KB at ``relatedness_threshold``."""

    def build() -> tuple:
        ckb = build_tiny_ckb(build_tiny_kb())
        network = RecencyPropagationNetwork(ckb.kb, relatedness_threshold)
        return ckb, DiGraph(num_nodes, edges), network

    return build


def test_lattice_has_24_configurations_led_by_the_reference():
    assert len(set(LATTICE)) == 24
    assert str(LATTICE[0]) == "closure·link·uncached·warm"


# ---------------------------------------------------------------------- #
# random scripts over the Fig. 1 world
# ---------------------------------------------------------------------- #

#: User 0 follows @NBAOfficial (10), user 5 the ML expert (11), user 1
#: follows 10 and 12, and the three experts follow each other.
FIG1 = World(
    fig1(
        13,
        [(0, 10), (5, 11), (1, 10), (1, 12), (10, 11), (11, 12), (12, 10), (10, 12)],
        relatedness_threshold=0.2,
    ),
    LinkerConfig(burst_threshold=2, influential_users=2),
)

_SURFACES = ("jordan", "nba", "chicago bulls", "icml", "air jordan", "zzzz")
_ALIASES = ("alias0", "alias1", "alias2")
_users = st.integers(0, 12)
_authors = st.one_of(_users, st.sampled_from((-1, 13)))
_entities = st.integers(0, 6)
_times = st.integers(0, 48).map(lambda quarter: quarter * DAY / 4)
_op = st.one_of(
    st.tuples(st.just("link"), st.sampled_from(_SURFACES + _ALIASES), _authors, _times),
    st.tuples(st.just("confirm"), _entities, _authors, _times),
    st.tuples(st.just("write"), _entities, _users, _times),
    st.tuples(
        st.just("bulk"),
        st.lists(st.tuples(_entities, _users, _times), min_size=1, max_size=3).map(tuple),
    ),
    st.tuples(st.just("surface"), st.sampled_from(_ALIASES + _SURFACES), _entities),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_op, max_size=24), st.sampled_from(VARIANTS))
def test_random_scripts_on_the_fig1_world(script, world_variant):
    """Links, confirms (known and unknown authors), direct and bulk writes
    and new surfaces in any order, then every surface."""
    sweep = [("link", surface, 11, 12 * DAY) for surface in _SURFACES]
    check(variant(FIG1, *world_variant), script + sweep)


# ---------------------------------------------------------------------- #
# named scripts: the hand-built worlds and write recipes
# ---------------------------------------------------------------------- #

#: Two entities behind "jordan", three links each: user 20 on entity 0,
#: user 21 on entity 1.  Asker 0 follows 1..5; 20 sits 3 hops away through
#: followees 1, 2, 3 and 21 two hops through 4 and 5, so
#: ``R(0, 20) = 3/(3*5)`` and ``R(0, 21) = 2/(2*5)`` are the same rational.
TIE = World(
    lambda: (
        jordan_world([(e, 20 + e, ts * DAY) for ts in range(3) for e in (0, 1)])[0],
        DiGraph(
            22,
            [(0, f) for f in (1, 2, 3, 4, 5)]
            + [(1, 6), (6, 20), (2, 7), (7, 20), (3, 8), (8, 20), (4, 21), (5, 21)],
        ),
        None,
    ),
    LinkerConfig(influential_users=1),
)


@pytest.mark.parametrize("world_variant", VARIANTS)
def test_eq4_tie_breaks_by_entity_id(world_variant):
    """Eq. 1 ties and ascending entity id decides, on every provider,
    because Eq. 4 is rounded in one place (the online BFS oracle too)."""
    world = variant(TIE, *world_variant)
    reference = check(world, [("link", "jordan", 0, 10 * DAY)])
    assert reference.outcomes[0][0][0].entity_id == 0
    _, graph, _ = world.build()
    providers = [
        build(graph, world.max_hops) for build in (OnlineReachability, *PROVIDERS.values())
    ]
    for index in providers:
        assert index.reachability(0, 20) == index.reachability(0, 21) == 0.2


#: Authors without a social path into ``U*_e`` (drawn from {10, 11, 12}):
#: author 6 follows nobody; author 0's followees 1 and 7 sit three hops
#: from 10 and 11 (and nowhere near 12), past ``max_hops = 2``.
NO_INTEREST = World(
    fig1(13, [(0, 1), (1, 2), (2, 3), (3, 10), (0, 7), (7, 8), (8, 9), (9, 11)]),
    LinkerConfig(burst_threshold=2, influential_users=2),
    max_hops=2,
)


@pytest.mark.parametrize("world_variant", VARIANTS)
def test_authors_without_a_path_stay_under_the_bound(world_variant):
    """Appendix D: every candidate of an author with no social path into
    the community scores at or under ``beta + gamma``."""
    world = variant(NO_INTEREST, *world_variant)
    reference = check(world, [("link", "jordan", author, 100 * DAY) for author in (6, 0)])
    for candidates, degradation in reference.outcomes:
        assert len(candidates) == 3 and degradation is None
        for candidate in candidates:
            assert candidate.interest == 0.0
            assert candidate.score <= world.config.no_interest_bound


@pytest.mark.parametrize("world_variant", VARIANTS)
def test_unknown_users_are_refused(world_variant):
    """``-1`` would wrap to user 12's row and ``13`` index past the end of
    the 13-node graph: links, a batch holding one (a confirm ends each
    batch), and confirms (which would put the author into ``U*_e``) are
    refused, with nothing written."""
    script = []
    for known, unknown in ((0, -1), (12, 13)):
        script += [("link", "jordan", known, 100 * DAY), ("link", "jordan", unknown, 100 * DAY)]
        script.append(("confirm", 0, unknown, 100 * DAY))
    reference = check(variant(FIG1, *world_variant), script)
    assert [outcome == REFUSED for outcome in reference.outcomes] == [False, True, True] * 2
    assert reference.outcomes[0][0] and reference.outcomes[3][0]


#: Writes into ``conftest.jordan_world`` after the warm linker's first
#: link: each moves ``U*_e`` of a sibling candidate.
JORDAN_WRITES = {
    "confirm_once": [("confirm", 0, 1, 10 * DAY)],
    "confirm_twice": [("confirm", 0, 1, 10 * DAY)] * 2,
    "direct_ckb_write": [("bulk", ((0, 1, 10 * DAY),) * 5)],
}


@pytest.mark.parametrize("world_variant", VARIANTS)
@pytest.mark.parametrize("write", sorted(JORDAN_WRITES))
def test_after_a_write_to_a_sibling(write, world_variant):
    world = World(lambda: (*jordan_world(JORDAN_LINKS), None), LinkerConfig(influential_users=1))
    ask = ("link", "jordan", 0, 10 * DAY)
    check(variant(world, *world_variant), [ask, *JORDAN_WRITES[write], ask])


#: Writes that move "jordan" through the recency of its Fig. 1 clusters
#: ({0, 3, 4} and {1, 5, 6}): 5 and 6 are neighbours, not candidates.
CLUSTER_WRITES = {
    "confirm": [("confirm", 5, 11, 9.5 * DAY)] * 3,
    "direct_ckb_write": [("bulk", ((6, 11, 9 * DAY),) * 3 + ((0, 11, 8 * DAY),))],
}


@pytest.mark.parametrize("method", ["entropy", "tfidf"])
@pytest.mark.parametrize("write", sorted(CLUSTER_WRITES))
def test_after_a_write_into_a_read_cluster(write, method):
    """The merged timelines are kept by the writers: after the warm linker
    has read both "jordan" clusters, a neighbour's write moves its next
    answer as it moves a linker's over a KB rebuilt from the links."""
    world = World(
        fig1(41, [(0, 10), (5, 11), (1, 10), (1, 12)], relatedness_threshold=0.2),
        LinkerConfig(burst_threshold=2, influence_method=method),
    )
    ask = ("link", "jordan", 0, 10 * DAY)
    reference = check(world, [ask, *CLUSTER_WRITES[write], ask])
    assert reference.outcomes[-1] != reference.outcomes[0]


@pytest.mark.parametrize("world_variant", VARIANTS)
def test_a_new_co_candidate_splits_a_cluster(world_variant):
    """Registering "jordan" for the Bulls makes entities 0 and 3
    co-candidates, which may no longer share a recency cluster: a warm
    linker's network must follow the KB as a fresh one's does."""
    ask = ("link", "jordan", 0, 8 * DAY)
    check(variant(FIG1, *world_variant), [ask, ("surface", "jordan", 3), ask])


@pytest.mark.parametrize("world_variant", VARIANTS)
def test_confirm_feedback_loop(world_variant):
    """The online feedback path: every third link is followed by a confirm
    through the warm linker itself."""
    script = []
    for step in range(30):
        now = (8 + step / 10) * DAY
        script.append(("link", "jordan", 10, now))
        if step % 3 == 0:
            script.append(("confirm", step % 7, 11, now))
    check(variant(FIG1, *world_variant), script)


# ---------------------------------------------------------------------- #
# a seeded script over a generated world
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("world_variant", [(True, "entropy"), (False, "tfidf")])
def test_small_context_confirming_each_best(small_context, world_variant):
    """The first 120 test mentions of a generated world, linked ten at a
    time, each best confirmed after its batch.  Every configuration
    restores its own CKB; the graph and the recency network are read-only
    here, so they are shared.  Two variants (the world's parameters and
    both flipped) keep the file near 11 s: each is 480 restores."""
    graph = small_context.world.graph
    world = variant(
        World(
            lambda: (
                restore(small_context.ckb.kb, snapshot(small_context.ckb), graph.num_nodes),
                graph,
                small_context.propagation_network,
            ),
            small_context.config,
        ),
        *world_variant,
    )
    mentions = [
        (m.surface, t.user, t.timestamp)
        for t in small_context.test_dataset.tweets
        for m in t.mentions
    ][:120]
    ckb, _, network = world.build()
    confirming = SocialTemporalLinker(
        ckb, graph, config=world.config, propagation_network=network
    )
    script = []
    for start in range(0, len(mentions), 10):
        chunk = mentions[start : start + 10]
        script += [("link", *mention) for mention in chunk]
        for surface, user, now in chunk:
            best = confirming.link(surface, user, now).best
            if best is not None:
                confirming.confirm_link(best.entity_id, user, now)
                script.append(("confirm", best.entity_id, user, now))
    reference = check(world, script)
    linked = [outcome for outcome in reference.outcomes if outcome is not None]
    assert len(linked) == 120 and sum(bool(outcome[0]) for outcome in linked) > 100
