"""Shared fixtures: small deterministic worlds, hand-built graphs and the
golden-trace scenarios."""

from __future__ import annotations

import random

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.errors import IndexUnavailableError
from repro.eval.context import build_experiment
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.obs.export import render_trace_document
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.resilience.breaker import CircuitBreaker
from repro.stream.generator import SyntheticWorld
from repro.stream.profiles import quick_profiles
from repro.testing.faults import FakeClock
from repro.testing.oracles import OnlineReachability


@pytest.fixture
def diamond_graph() -> DiGraph:
    """u=0 follows a=1, b=2, c=3; a and b follow v=4.

    Hand-checkable weighted reachabilities:
    R(0,1)=R(0,2)=R(0,3)=1 (direct), R(0,4) = (1/2) * (2/3) = 1/3.
    """
    return DiGraph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])


@pytest.fixture
def chain_graph() -> DiGraph:
    """0 -> 1 -> 2 -> 3 -> 4 (single path, tests hop horizon)."""
    return DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def random_graph(num_nodes: int, num_edges: int, seed: int) -> DiGraph:
    return random_digraph(num_nodes, num_edges, random.Random(seed))


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


def build_tiny_ckb(kb: Knowledgebase, first_day: int = 0) -> ComplementedKnowledgebase:
    """Complemented version of the Fig.-1 KB.

    Users: 10 = @NBAOfficial (tweets only basketball, nine days from
    ``first_day``), 11 = ML expert who mostly tweets ML but once
    basketball, 12 = sneakerhead.
    """
    ckb = ComplementedKnowledgebase(kb)
    for ts in range(first_day, first_day + 9):
        ckb.link_tweet(0, user=10, timestamp=float(ts) * DAY)
    ckb.link_tweet(0, user=11, timestamp=2.0 * DAY)
    for ts in range(4):
        ckb.link_tweet(1, user=11, timestamp=float(ts) * DAY)
    for ts in range(3):
        ckb.link_tweet(2, user=12, timestamp=float(ts) * DAY)
    ckb.link_tweet(4, user=10, timestamp=5.0 * DAY)
    return ckb


def ckb_of(communities, num_entities=None) -> ComplementedKnowledgebase:
    """A CKB from ``{entity: {user: |D_e^u|}}``, users linked in the order
    given, over ``num_entities`` entities (default: up to the largest)."""
    kb = Knowledgebase()
    for entity in range(num_entities or max(communities) + 1):
        kb.add_entity(f"entity {entity}")
    ckb = ComplementedKnowledgebase(kb)
    for entity, counts in communities.items():
        for user, count in counts.items():
            ckb.bulk_link([(entity, user, 0.0, -1)] * count)
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
    follows user 1 only — the world of the harness's write-to-a-sibling
    scripts (``test_differential.py``)."""
    kb = Knowledgebase()
    kb.add_entity("jordan (a)", description=["a"])
    kb.add_entity("jordan (b)", description=["b"])
    for entity_id in JORDAN_CANDIDATES:
        kb.add_surface_form("jordan", entity_id)
    ckb = ComplementedKnowledgebase(kb)
    ckb.bulk_link((*link, -1) for link in links)
    return ckb, DiGraph(5, [(0, 1)])


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


class DownReachability:
    """A reachability index that is hard-down: every query raises."""

    def reachability(self, source: int, target: int) -> float:
        raise IndexUnavailableError("index down")


#: The golden-trace scenarios (tests/golden/<name>.trace.jsonl) and their
#: ``(surface, user, now)`` requests, in order.  Each drives the live
#: linker down one decision path over the Fig.-1 KB:
#:
#: * ``normal``: user 0 follows the basketball hub 10 and asks during its
#:   burst; interest, recency and popularity all fire (Eq. 1).
#: * ``abstention``: user 5 follows nobody and asks long after the burst;
#:   the best score is at or below the ``β + γ`` bound (Appendix D).
#: * ``degraded``: the index is down; the first request degrades and
#:   trips a threshold-1 breaker, the second is rejected while it is open.
_SCENARIO_REQUESTS = {
    "normal": [("jordan", 0, 9.5 * DAY)],
    "abstention": [("jordan", 5, 30.0 * DAY)],
    "degraded": [("jordan", 0, 9.5 * DAY), ("jordan", 3, 9.5 * DAY)],
}
SCENARIOS = tuple(_SCENARIO_REQUESTS)


def _scenario_linker(name: str) -> SocialTemporalLinker:
    """The linker one scenario runs, over a fresh world: the basketball
    history starts at day 1 and recency propagation is off, so the trace
    is about the decision path and not the WLM clustering."""
    ckb = build_tiny_ckb(build_tiny_kb(), first_day=1)
    graph = DiGraph(13, [(0, 10), (1, 11), (2, 12), (3, 10), (3, 11)])
    config = LinkerConfig(recency_propagation=False)
    if name == "degraded":
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=60.0, clock=FakeClock()
        )
        return SocialTemporalLinker(
            ckb, graph, config=config, reachability=DownReachability(),
            breaker=breaker,
        )
    # online BFS, so the traces show one reachability.bfs span per source
    return SocialTemporalLinker(
        ckb, graph, config=config, reachability=OnlineReachability(graph)
    )


def run_scenario(name: str):
    """Run one scenario under the global TRACE and METRICS, which the
    production code records into, and return its (trace document,
    metrics snapshot).

    Both are reset first, restarting the tracer's tick clock at 0, so the
    document is a pure function of the scenario name.
    """
    linker = _scenario_linker(name)
    TRACE.reset()
    TRACE.enable()
    METRICS.reset()
    try:
        for surface, user, now in _SCENARIO_REQUESTS[name]:
            linker.link(surface, user=user, now=now)
    finally:
        TRACE.disable()
    document = render_trace_document(TRACE.drain(), "run_scenario", scenario=name)
    return document, METRICS.snapshot()


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
