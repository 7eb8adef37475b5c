"""Metrics registry: histograms, stage timers, documents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    COUNT_BOUNDARIES,
    METRICS,
    SCORE_BOUNDARIES,
    Histogram,
    MetricsRegistry,
    percentile,
    render_metrics_document,
    validate_metrics_document,
)
from repro.obs.stage import stage

from conftest import SCENARIOS, run_scenario

#: Any JSON scalar, so most drawn sections are wrong somewhere.
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2)
)
_NAMES = st.text(max_size=2)
_METRICS_SECTION = st.fixed_dictionaries({
    "counters": st.dictionaries(_NAMES, _JSON_SCALAR, max_size=3),
    "gauges": st.dictionaries(_NAMES, _JSON_SCALAR, max_size=3),
    "histograms": st.dictionaries(_NAMES, st.one_of(_JSON_SCALAR, st.fixed_dictionaries({
        "boundaries": st.lists(st.one_of(st.integers(-2, 4), _JSON_SCALAR), max_size=3),
        "bucket_counts": st.lists(st.one_of(st.integers(-1, 3), _JSON_SCALAR), max_size=4),
        "count": st.one_of(st.integers(-1, 6), _JSON_SCALAR),
    })), max_size=2),
    "timers": st.just({}),
})


class TestHistogram:
    def test_inclusive_upper_bounds(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(1.0)  # lands in bucket 0 (<= 1.0)
        histogram.observe(1.5)  # bucket 1
        histogram.observe(2.0)  # bucket 1 (<= 2.0)
        histogram.observe(9.0)  # overflow
        assert histogram.bucket_counts == [1, 2, 1]
        assert histogram.count == 4

    def test_bucket_counts_sum_to_count(self):
        histogram = Histogram(COUNT_BOUNDARIES)
        for value in (0.0, 3.0, 100.0, 7.5):
            histogram.observe(value)
        assert sum(histogram.bucket_counts) == histogram.count == 4

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_dict_roundtrip(self):
        histogram = Histogram(SCORE_BOUNDARIES)
        histogram.observe(0.42)
        clone = Histogram.from_dict(histogram.as_dict())
        assert clone.as_dict() == histogram.as_dict()

    def test_from_dict_rejects_wrong_length(self):
        payload = Histogram((1.0,)).as_dict()
        payload["bucket_counts"] = [0, 0, 0]
        with pytest.raises(ValueError):
            Histogram.from_dict(payload)

    def test_from_dict_rejects_count_disagreeing_with_buckets(self):
        histogram = Histogram((1.0,))
        histogram.observe(0.5)
        payload = histogram.as_dict()
        payload["count"] = 5
        with pytest.raises(ValueError, match="bucket sum"):
            Histogram.from_dict(payload)


class TestPercentile:
    def test_empty_is_zero_at_every_quantile(self):
        for q in (0.0, 50.0, 100.0):
            assert percentile([], q) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 100.0) == 7.0

    def test_nearest_rank_on_unsorted_input(self):
        samples = [float(v) for v in range(10, 0, -1)]  # 10..1
        assert percentile(samples, 50.0) == 5.0
        assert percentile(samples, 95.0) == 10.0
        assert percentile(samples, 10.0) == 1.0
        assert percentile([2.0, 1.0], 0.0) == 1.0
        assert percentile([2.0, 1.0], 50.0) == 1.0
        assert percentile([2.0, 1.0], 51.0) == 2.0
        assert percentile([2.0, 1.0], 100.0) == 2.0

    def test_all_equal_samples(self):
        samples = [4.2] * 9
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile(samples, q) == 4.2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.incr("link.requests")
        registry.incr("link.requests", 4)
        assert registry.counter("link.requests") == 5
        assert registry.counter("unknown") == 0

    def test_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("ingest.pending", 12)
        registry.gauge("ingest.pending", 3)
        assert registry.gauge_value("ingest.pending") == 3.0
        assert registry.gauge_value("unknown") is None

    def test_observe_binds_boundaries_on_first_use(self):
        registry = MetricsRegistry()
        registry.observe("scores", 0.5, boundaries=SCORE_BOUNDARIES)
        with pytest.raises(ValueError):
            registry.observe("scores", 0.5, boundaries=COUNT_BOUNDARIES)
        # the same values in another container and number type still bind
        registry.observe("counts", 2, boundaries=COUNT_BOUNDARIES)
        registry.observe("counts", 3, boundaries=[int(b) for b in COUNT_BOUNDARIES])
        assert registry.histogram("counts").count == 2
        assert registry.histogram("counts").boundaries == COUNT_BOUNDARIES

    def test_reset(self):
        registry = MetricsRegistry()
        registry.incr("c")
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timers": {},
        }


class TestTimers:
    def test_timing_off_records_nothing_counters_still_count(self):
        registry = MetricsRegistry()
        assert not registry.timing
        registry.observe_duration("stage", 0.25)
        registry.incr("always")
        assert registry.samples("stage") == []
        assert registry.snapshot()["timers"] == {}
        assert registry.counter("always") == 1

    def test_bounded_window(self, monkeypatch):
        monkeypatch.setattr(obs_metrics, "MAX_SAMPLES", 3)
        registry = MetricsRegistry()
        registry.timing = True
        for v in range(5):
            registry.observe_duration("stage", float(v))
        assert registry.samples("stage") == [2.0, 3.0, 4.0]

    def test_timer_stats(self):
        registry = MetricsRegistry()
        registry.timing = True
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.observe_duration("stage", v)
        stats = registry.timer_stats("stage")
        assert stats["count"] == 4.0
        assert stats["total_s"] == pytest.approx(10.0)
        assert stats["mean_s"] == pytest.approx(2.5)
        assert stats["p50_s"] == 2.0
        assert stats["p99_s"] == 4.0
        assert registry.snapshot()["timers"]["stage"]["count"] == 4.0
        empty = registry.timer_stats("never_timed")
        assert empty["count"] == 0.0 and empty["mean_s"] == 0.0
        registry.observe_duration("once", 0.5)
        once = registry.timer_stats("once")
        assert once["count"] == 1.0
        assert once["mean_s"] == once["p50_s"] == once["p99_s"] == 0.5
        for _ in range(5):
            registry.observe_duration("constant", 0.25)
        constant = registry.timer_stats("constant")
        assert constant["p50_s"] == constant["p99_s"] == 0.25
        assert constant["total_s"] == pytest.approx(1.25)

    def test_reset_drops_samples_and_keeps_the_switch(self):
        registry = MetricsRegistry()
        registry.timing = True
        registry.observe_duration("stage", 1.0)
        registry.reset()
        assert registry.samples("stage") == []
        assert registry.timing


@pytest.fixture
def clean_global_metrics():
    METRICS.reset()
    yield
    METRICS.timing = False
    METRICS.reset()


STAGES = (
    "link.candidates",
    "link.interest",
    "link.recency",
    "link.popularity",
    "link.combine",
)


class TestStage:
    def test_off_is_the_shared_noop(self, clean_global_metrics):
        with stage("quiet") as span:
            assert not span.recording
        assert stage("quiet") is stage("other", user=3)
        assert METRICS.snapshot()["timers"] == {}

    def test_times_the_block_while_timing_is_on(self, clean_global_metrics):
        METRICS.timing = True
        with stage("timed") as span:
            assert not span.recording  # timing on, tracing still off
        assert len(METRICS.samples("timed")) == 1
        assert METRICS.samples("timed")[0] >= 0.0

    def test_linker_stages_timed(self, small_context, clean_global_metrics):
        """The link() hot path records its stage breakdown when enabled."""
        linker = small_context.social_temporal()
        tweet = small_context.test_dataset.tweets[0]
        mention = tweet.mentions[0]
        linker.link(mention.surface, tweet.user, tweet.timestamp)
        assert METRICS.snapshot()["timers"] == {}
        METRICS.timing = True
        linker.link(mention.surface, tweet.user, tweet.timestamp)
        assert all(len(METRICS.samples(name)) == 1 for name in STAGES)

    def test_batch_path_times_the_same_stages(
        self, small_context, clean_global_metrics
    ):
        from repro.core.batch import LinkRequest, MicroBatchLinker

        linker = small_context.social_temporal()
        tweet = small_context.test_dataset.tweets[0]
        request = LinkRequest(
            tweet.mentions[0].surface, tweet.user, tweet.timestamp
        )
        METRICS.timing = True
        MicroBatchLinker(linker).link_batch([request])
        assert all(len(METRICS.samples(name)) == 1 for name in STAGES)


class TestSeededSnapshots:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_trace_scenario_snapshot_repeats(self, name):
        """Cache counters moved into METRICS are decisions too: a seeded
        scenario run twice snapshots identically."""
        _, first = run_scenario(name)
        _, second = run_scenario(name)
        assert first == second
        assert first["timers"] == {}
        if name != "degraded":  # the degraded index fails before any lookup
            assert any(
                counter.startswith(("influential_cache.", "online_bfs."))
                for counter in first["counters"]
            )


class TestDocument:
    def test_render_and_validate(self):
        registry = MetricsRegistry()
        registry.incr("link.requests")
        registry.observe("sizes", 2.0)
        registry.timing = True
        registry.observe_duration("link.interest", 0.002)
        document = render_metrics_document(registry)
        assert validate_metrics_document(document) == []
        assert document["meta"]["schema_version"] == 2
        assert "perf" not in document
        assert document["metrics"]["timers"]["link.interest"]["count"] == 1.0

    def test_validator_flags_problems(self):
        assert validate_metrics_document([]) != []
        document = render_metrics_document(MetricsRegistry())
        document["meta"]["schema_version"] = 99
        assert any("schema_version" in p for p in validate_metrics_document(document))

    def test_validator_flags_bucket_sum_mismatch(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        document = render_metrics_document(registry)
        document["metrics"]["histograms"]["h"]["count"] = 5
        assert any("sum" in p for p in validate_metrics_document(document))

    @pytest.mark.parametrize(
        "section, values", [("counters", {"a": "zz"}), ("gauges", {"g": None})]
    )
    def test_non_numeric_values_are_rejected(self, section, values):
        document = render_metrics_document(MetricsRegistry())
        document["metrics"][section] = values
        assert validate_metrics_document(document) != []

    @settings(max_examples=200, deadline=None)
    @given(_METRICS_SECTION)
    def test_validator_reports_junk_without_raising(self, metrics):
        document = {"meta": {"schema_version": 2, "tool": "t"}, "metrics": metrics}
        assert isinstance(validate_metrics_document(document), list)
