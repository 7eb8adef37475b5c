"""Fixture worlds for ``repro trace`` and the golden-trace suite.

Each scenario is a tiny, fully hand-built world (no RNG at all — the
strongest form of seeded randomness) that drives the live linker down
one canonical decision path:

* ``normal``     — a follower of the basketball community links the
  ambiguous mention "jordan" during a basketball burst; interest,
  recency and popularity all fire and the basketball entity wins.
* ``abstention`` — a socially isolated user links the same mention long
  after the burst window: interest and recency are both zero, the best
  score falls at or below the Appendix-D no-interest bound ``β + γ``,
  and the trace carries the abstention signal.
* ``degraded``   — the reachability index fails; the first request
  degrades (``index_unavailable``) and trips a threshold-1 circuit
  breaker, the second is rejected open (``circuit_open``).  Breaker
  transitions appear as typed trace events.

The scenarios run against the *global* :data:`~repro.obs.trace.TRACE`
and :data:`~repro.obs.metrics.METRICS` (resetting both first), because
that is exactly how the production wiring records — a golden trace that
bypassed the real instrumentation would not catch drift in it.  With the
tracer's deterministic tick clock, two runs of the same scenario render
byte-identical JSON lines.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import DAY, LinkerConfig
from repro.core.linker import LinkResult, SocialTemporalLinker
from repro.errors import IndexUnavailableError
from repro.graph.digraph import DiGraph
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.obs.export import render_trace_document, validate_trace_document
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.resilience.breaker import CircuitBreaker
from repro.testing.faults import FakeClock
from repro.testing.oracles import OnlineReachability

__all__ = ["SCENARIOS", "golden_path", "run_scenario"]

#: Scenario names in canonical (and golden-file) order.
SCENARIOS = ("normal", "abstention", "degraded")

#: Users of the fixture world (the follow graph allocates 0..12).
_NUM_USERS = 13
_FOLLOWER = 0  # follows the basketball hub
_ISOLATED = 5  # follows nobody; nobody follows them
_HUB_BBALL = 10
_HUB_ML = 11
_HUB_SNEAKER = 12


class _FailingReachability:
    """A reachability index that is hard-down (every query raises)."""

    def reachability(self, source: int, target: int) -> float:
        raise IndexUnavailableError(
            f"fixture index outage (query {source}->{target})"
        )


def _fixture_kb() -> Knowledgebase:
    """The paper's Fig. 1 in miniature (same shape as the test fixture)."""
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
    kb.add_entity(
        "machine learning", description="machine model data learning".split()
    )
    for entity_id in (0, 1, 2):
        kb.add_surface_form("jordan", entity_id)
    for cluster in ((0, 3, 4), (1, 5, 6)):
        for a in cluster:
            for b in cluster:
                if a != b:
                    kb.add_hyperlink(a, b)
    return kb


def _fixture_ckb(kb: Knowledgebase) -> ComplementedKnowledgebase:
    """Complemented KB: a basketball burst at days 7-9, older ML/sneaker
    chatter — enough history for influence, recency and popularity."""
    ckb = ComplementedKnowledgebase(kb)
    for day in range(1, 10):
        ckb.link_tweet(0, user=_HUB_BBALL, timestamp=float(day) * DAY)
    ckb.link_tweet(0, user=_HUB_ML, timestamp=2.0 * DAY)
    for day in range(4):
        ckb.link_tweet(1, user=_HUB_ML, timestamp=float(day) * DAY)
    for day in range(3):
        ckb.link_tweet(2, user=_HUB_SNEAKER, timestamp=float(day) * DAY)
    ckb.link_tweet(4, user=_HUB_BBALL, timestamp=5.0 * DAY)
    return ckb


def _fixture_graph() -> DiGraph:
    """User 0 follows the basketball hub; user 5 is fully isolated."""
    return DiGraph(
        _NUM_USERS,
        [
            (_FOLLOWER, _HUB_BBALL),
            (1, _HUB_ML),
            (2, _HUB_SNEAKER),
            (3, _HUB_BBALL),
            (3, _HUB_ML),
        ],
    )


def _scenario_config() -> LinkerConfig:
    # recency_propagation off keeps the fixture trace about the decision
    # path, not the WLM clustering, and makes the world cheap to build
    return LinkerConfig(recency_propagation=False)


def _trace_requests(name: str) -> List[Tuple[str, int, float]]:
    """(surface, user, now) per scenario, in execution order."""
    if name == "normal":
        return [("jordan", _FOLLOWER, 9.5 * DAY)]
    if name == "abstention":
        return [("jordan", _ISOLATED, 30.0 * DAY)]
    if name == "degraded":
        # two requests: the first trips the breaker, the second is
        # rejected while it is open
        return [("jordan", _FOLLOWER, 9.5 * DAY), ("jordan", 3, 9.5 * DAY)]
    raise ValueError(f"unknown trace scenario {name!r}")


def _build_linker(name: str) -> SocialTemporalLinker:
    kb = _fixture_kb()
    ckb = _fixture_ckb(kb)
    graph = _fixture_graph()
    config = _scenario_config()
    if name == "degraded":
        return SocialTemporalLinker(
            ckb,
            graph,
            config=config,
            reachability=_FailingReachability(),
            breaker=CircuitBreaker(
                failure_threshold=1,
                recovery_timeout=60.0,
                clock=FakeClock(),
            ),
        )
    # cached online BFS, so the traces show one reachability.bfs span per source
    return SocialTemporalLinker(
        ckb,
        graph,
        config=config,
        reachability=OnlineReachability(graph),
    )


def run_scenario(
    name: str,
) -> Tuple[Dict[str, object], Dict[str, object], List[LinkResult]]:
    """Run one scenario under tracing; return (trace document, metrics
    snapshot, link results).

    Resets the global tracer (restarting its tick clock at 0) and the
    global metrics registry, so successive runs are independent and the
    rendered document is a pure function of the scenario name.
    """
    linker = _build_linker(name)
    TRACE.reset()
    TRACE.enable()
    METRICS.reset()
    try:
        results = [
            linker.link(surface, user=user, now=now)
            for surface, user, now in _trace_requests(name)
        ]
    finally:
        TRACE.disable()
    document = render_trace_document(TRACE.drain(), scenario=name)
    problems = validate_trace_document(document)
    if problems:  # pragma: no cover - guards future instrumentation drift
        raise AssertionError(
            f"scenario {name!r} emitted an invalid trace: {problems}"
        )
    return document, METRICS.snapshot(), results


def golden_path(directory: str, name: str) -> str:
    """Canonical golden-fixture path for one scenario."""
    return f"{directory.rstrip('/')}/{name}.trace.jsonl"
