"""Shared fixtures: small deterministic worlds and hand-built graphs."""

from __future__ import annotations

import random

import pytest

from repro.config import DAY
from repro.core.linker import SocialTemporalLinker
from repro.eval.context import build_experiment
from repro.graph.digraph import DiGraph
from repro.kb.checkpoint import restore, snapshot
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.stream.generator import SyntheticWorld
from repro.stream.profiles import quick_profiles


@pytest.fixture
def diamond_graph() -> DiGraph:
    """u=0 follows a=1, b=2, c=3; a and b follow v=4.

    Hand-checkable weighted reachabilities:
    R(0,1)=R(0,2)=R(0,3)=1 (direct), R(0,4) = (1/2) * (2/3) = 1/3.
    """
    return DiGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])


@pytest.fixture
def chain_graph() -> DiGraph:
    """0 -> 1 -> 2 -> 3 -> 4 (single path, tests hop horizon)."""
    return DiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def random_graph(num_nodes: int, num_edges: int, seed: int) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph(num_nodes)
    while graph.num_edges < num_edges:
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v:
            graph.add_edge(u, v)
    return graph


def build_tiny_kb() -> Knowledgebase:
    """The paper's Fig. 1 in miniature: the ambiguous mention "jordan".

    Entities: 0 = Michael Jordan (basketball), 1 = Michael Jordan (ML),
    2 = Air Jordan, 3 = Chicago Bulls, 4 = NBA, 5 = ICML, 6 = machine
    learning.  "jordan" maps to {0, 1, 2}; hyperlinks are dense inside the
    basketball cluster {0, 3, 4} and inside the ML cluster {1, 5, 6}.
    """
    kb = Knowledgebase()
    kb.add_entity(
        "michael jordan (basketball)", description="jordan nba bulls dunk".split()
    )
    kb.add_entity(
        "michael jordan (ml)", description="jordan icml inference model".split()
    )
    kb.add_entity("air jordan", description="jordan shoes sneaker brand".split())
    kb.add_entity("chicago bulls", description="bulls nba team chicago".split())
    kb.add_entity("nba", description="nba league basketball season".split())
    kb.add_entity("icml", description="icml machine learning conference".split())
    kb.add_entity("machine learning", description="machine model data learning".split())
    for entity_id in (0, 1, 2):
        kb.add_surface_form("jordan", entity_id)
    basketball = (0, 3, 4)
    ml = (1, 5, 6)
    for cluster in (basketball, ml):
        for a in cluster:
            for b in cluster:
                if a != b:
                    kb.add_hyperlink(a, b)
    return kb


def build_tiny_ckb(kb: Knowledgebase) -> ComplementedKnowledgebase:
    """Complemented version of the Fig.-1 KB.

    Users: 10 = @NBAOfficial (tweets only basketball), 11 = ML expert who
    mostly tweets ML but once basketball, 12 = sneakerhead.
    """
    ckb = ComplementedKnowledgebase(kb)
    for ts in range(9):
        ckb.link_tweet(0, user=10, timestamp=float(ts) * DAY)
    ckb.link_tweet(0, user=11, timestamp=2.0 * DAY)
    for ts in range(4):
        ckb.link_tweet(1, user=11, timestamp=float(ts) * DAY)
    for ts in range(3):
        ckb.link_tweet(2, user=12, timestamp=float(ts) * DAY)
    ckb.link_tweet(4, user=10, timestamp=5.0 * DAY)
    return ckb


@pytest.fixture
def tiny_kb() -> Knowledgebase:
    return build_tiny_kb()


@pytest.fixture
def tiny_ckb(tiny_kb) -> ComplementedKnowledgebase:
    return build_tiny_ckb(tiny_kb)


def jordan_world(links):
    """Two entities behind the surface "jordan", ``links`` as their
    ``(entity, user, timestamp)`` history, and an asker (user 0) who
    follows user 1 only — the world of the warm-vs-fresh recipes
    (``test_linker.py::TestWarmEqualsFresh``)."""
    kb = Knowledgebase()
    kb.add_entity("jordan (a)", description=["a"])
    kb.add_entity("jordan (b)", description=["b"])
    for entity_id in JORDAN_CANDIDATES:
        kb.add_surface_form("jordan", entity_id)
    ckb = ComplementedKnowledgebase(kb)
    ckb.bulk_link((*link, -1) for link in links)
    return ckb, DiGraph.from_edges(5, [(0, 1)])


#: The candidate set of "jordan" in :func:`jordan_world`.
JORDAN_CANDIDATES = (0, 1)

#: Users 1 and 2 with three tweets each on e1, user 3 with one on e0.
JORDAN_LINKS = [(1, user, ts * DAY) for ts in range(3) for user in (1, 2)] + [
    (0, 3, 0.0)
]


def fresh_linker(linker):
    """A linker built now over ``linker``'s world: nothing cached, so
    nothing it could have failed to notice."""
    return SocialTemporalLinker(linker.ckb, linker.graph, config=linker.config)


def rebuilt_linker(linker):
    """A linker built now over a complemented KB restored from a snapshot
    of ``linker``'s (one ``bulk_link`` of ``iter_links()``): nothing cached
    and no merged timeline yet, so every ``recent_counts`` it makes is a
    first read."""
    ckb = restore(linker.ckb.kb, snapshot(linker.ckb), linker.graph.num_nodes)
    return SocialTemporalLinker(ckb, linker.graph, config=linker.config)


def small_profiles(seed: int = 5):
    """KB/stream profiles for a fast (<1 s) but non-trivial world."""
    return quick_profiles(seed)


@pytest.fixture(scope="session")
def small_world() -> SyntheticWorld:
    kb_profile, stream_profile = small_profiles()
    return SyntheticWorld.generate(
        kb_profile=kb_profile, stream_profile=stream_profile
    )


@pytest.fixture(scope="session")
def small_context(small_world):
    """Experiment context with ground-truth complementation (fast)."""
    return build_experiment(world=small_world, complement_method="truth")
