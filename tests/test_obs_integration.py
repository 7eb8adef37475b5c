"""Observability wiring end to end: instrumented modules and degradation
counting."""

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import SocialTemporalLinker
from repro.core.pipeline import TextLinkingPipeline
from repro.errors import IndexUnavailableError
from repro.graph.digraph import DiGraph
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.resilience.breaker import CircuitBreaker
from repro.stream.ingest import ResilientIngestor, TweetValidator
from repro.stream.tweet import Tweet

from conftest import DownReachability


@pytest.fixture(autouse=True)
def clean_observability():
    """Each test sees (and leaves behind) pristine global TRACE/METRICS."""
    TRACE.reset()
    TRACE.disable()
    METRICS.reset()
    yield
    TRACE.reset()
    TRACE.disable()
    METRICS.reset()


@pytest.fixture
def linker(tiny_ckb):
    graph = DiGraph(13, [(0, 10), (5, 11)])
    return SocialTemporalLinker(
        tiny_ckb, graph, config=LinkerConfig(burst_threshold=2, influential_users=2)
    )


def _requests():
    return [
        LinkRequest("jordan", user=0, now=8 * DAY),
        LinkRequest("jordan", user=5, now=8 * DAY),
        LinkRequest("nba", user=0, now=8 * DAY),
        LinkRequest("jordan", user=0, now=2 * DAY),
        LinkRequest("qqqqqq", user=0, now=0.0),
    ]


class TestLinkerInstrumentation:
    def test_link_counts_requests_and_scores(self, linker):
        linker.link("jordan", user=0, now=8 * DAY)
        assert METRICS.counter("link.requests") == 1
        assert METRICS.histogram("link.candidates_per_request").count == 1
        assert METRICS.histogram("link.best_score").count == 1

    def test_no_candidates_counted_and_abstains(self, linker):
        linker.link("qqqqqq", user=0, now=0.0)
        assert METRICS.counter("link.no_candidates") == 1
        assert METRICS.counter("link.abstained") == 1

    def test_trace_disabled_emits_no_spans(self, linker):
        linker.link("jordan", user=0, now=8 * DAY)
        assert TRACE.finished_spans() == []

    def test_trace_enabled_emits_stage_tree(self, linker):
        TRACE.enable()
        linker.link("jordan", user=0, now=8 * DAY)
        spans = TRACE.drain()
        root = next(s for s in spans if s.parent_id is None)
        assert root.name == "link.request"
        children = {s.name for s in spans if s.parent_id == root.span_id}
        assert {
            "link.candidates",
            "link.interest",
            "link.recency",
            "link.popularity",
            "link.combine",
        } <= children

    def test_confirm_then_link_refreshes_the_influence_entry(self, linker):
        linker.link("jordan", user=0, now=8 * DAY)
        linker.confirm_link(1, user=12, timestamp=8 * DAY)
        linker.confirm_link(2, user=12, timestamp=8 * DAY)
        TRACE.enable()
        linker.link("jordan", user=0, now=8 * DAY)
        assert METRICS.counter("influential_cache.miss") == 1
        assert METRICS.counter("influential_cache.refresh") > 0
        influence = [s for s in TRACE.drain() if s.name == "link.influence"]
        assert [s.attributes for s in influence] == [{"candidates": 3, "authors": 2}]

    def test_degraded_link_counted_by_reason(self, tiny_ckb):
        linker = SocialTemporalLinker(
            tiny_ckb, DiGraph(13), reachability=DownReachability()
        )
        result = linker.link("jordan", user=0, now=8 * DAY)
        assert result.degradation == "index_unavailable"
        assert METRICS.counter("link.degraded") == 1
        assert METRICS.counter("link.degraded.index_unavailable") == 1
        # degraded results never abstain (interest was not measured)
        assert METRICS.counter("link.abstained") == 0


class TestBatchInstrumentation:
    def test_batch_shares_and_counts_caches(self, linker):
        MicroBatchLinker(linker).link_batch(_requests())
        assert METRICS.counter("link.requests") == 5
        # 3 distinct surfaces -> 3 candidate misses, 2 hits
        assert METRICS.counter("batch.candidate_cache.miss") == 3
        assert METRICS.counter("batch.candidate_cache.hit") == 2

    def test_batch_degradation_emits_typed_trace_event(self, tiny_ckb):
        """Satellite fix: MicroBatchLinker degradations are countable in
        the registry and visible as typed events in the trace."""
        linker = SocialTemporalLinker(
            tiny_ckb, DiGraph(13), reachability=DownReachability()
        )
        TRACE.enable()
        results = MicroBatchLinker(linker).link_batch(
            [LinkRequest("jordan", user=0, now=8 * DAY)] * 2
        )
        assert [r.degradation for r in results] == ["index_unavailable"] * 2
        assert METRICS.counter("link.degraded") == 2
        assert METRICS.counter("link.degraded.index_unavailable") == 2
        events = [
            event
            for span in TRACE.drain()
            for event in span.events
            if event.name == "link.degraded"
        ]
        assert len(events) == 2
        assert all(e.attributes == {"reason": "index_unavailable"} for e in events)

    def test_batch_and_single_path_record_same_totals(self, linker):
        for request in _requests():
            linker.link(request.surface, request.user, request.now)
        single = METRICS.snapshot()
        METRICS.reset()
        MicroBatchLinker(linker).link_batch(_requests())
        batch = METRICS.snapshot()
        shared = (
            "link.requests",
            "link.no_candidates",
            "link.degraded",
            "link.abstained",
        )
        for name in shared:
            assert batch["counters"].get(name, 0) == single["counters"].get(name, 0)
        assert (
            batch["histograms"]["link.candidates_per_request"]
            == single["histograms"]["link.candidates_per_request"]
        )


class TestPipelineAndStreamInstrumentation:
    def test_pipeline_counts_texts_and_mentions(self, linker):
        pipeline = TextLinkingPipeline(linker)
        pipeline.annotate("jordan dunks on the nba", user=0, now=8 * DAY)
        assert METRICS.counter("pipeline.texts") == 1
        assert METRICS.counter("pipeline.mentions") >= 1

    def test_ingest_counts_and_dead_letter_events(self):
        TRACE.enable()
        ingestor = ResilientIngestor(
            validator=TweetValidator(known_users=range(5))
        )
        good = Tweet(tweet_id=1, user=0, timestamp=10.0, text="hello")
        ingestor.push(good)
        ingestor.push(good)  # duplicate -> dead letter
        ingestor.flush()
        assert METRICS.counter("ingest.received") == 2
        assert METRICS.counter("ingest.admitted") == 1
        assert METRICS.counter("ingest.dead_letters") == 1
        assert METRICS.counter("ingest.dead_letters.duplicate") == 1
        assert METRICS.counter("ingest.emitted") == 1
        events = [
            event for span in TRACE.drain() for event in span.events
        ]
        assert any(
            e.name == "ingest.dead_letter"
            and e.attributes == {"reason": "duplicate"}
            for e in events
        )

    def test_breaker_transitions_counted(self):
        clock = iter(float(t) for t in range(100))
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=2.0, clock=lambda: next(clock)
        )
        def failing():
            raise IndexUnavailableError("down")
        with pytest.raises(IndexUnavailableError):
            breaker.call(failing)
        assert METRICS.counter("breaker.opened") == 1
        while breaker.state.value != "half_open":
            pass
        assert METRICS.counter("breaker.half_opened") == 1
        breaker.call(lambda: 42)
        assert METRICS.counter("breaker.closed") == 1

