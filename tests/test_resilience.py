"""Fault-tolerant online serving: taxonomy, ingestion, degradation, recovery.

Every scenario runs under *seeded* fault injection
(:mod:`repro.testing.faults`), so each degradation path executes
deterministically on every run.  The three acceptance scenarios of the
resilience layer:

(a) the linker returns degraded-but-ranked results when reachability
    fails (``TestGracefulDegradation``),
(b) out-of-order delivery within the lateness bound yields complemented-KB
    state identical to in-order delivery (``TestReorderingBuffer``),
(c) crash + restore from checkpoint yields the same link counts as an
    uninterrupted run (``TestCrashRecovery``).
"""

import math

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.errors import (
    CheckpointCorruptError,
    CircuitOpenError,
    DeadlineExceededError,
    DuplicateTweetError,
    IndexUnavailableError,
    MalformedTweetError,
    ReproError,
    StaleTimestampError,
    UnknownUserError,
)
from repro.graph.digraph import DiGraph
from repro.kb.checkpoint import (
    StreamCheckpoint,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.kb.complemented import ComplementedKnowledgebase
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.search import PersonalizedSearchEngine, TweetStore
from repro.stream import ingest
from repro.stream.ingest import DeadLetter, ResilientIngestor, TweetValidator
from repro.stream.tweet import MentionSpan, Tweet
from repro.testing.faults import (
    FakeClock,
    FaultSchedule,
    FlakyReachabilityProvider,
    corrupt_record,
    corruption_modes,
)


#: Nodes of ``social_graph``: the tiny CKB's authors are users 10–12.
TINY_USERS = 13


@pytest.fixture
def social_graph():
    return DiGraph(TINY_USERS, [(0, 10), (5, 11), (1, 10), (1, 12)])


def make_linker(ckb, graph, **kwargs):
    config = kwargs.pop(
        "config", LinkerConfig(burst_threshold=2, influential_users=2)
    )
    return SocialTemporalLinker(ckb, graph, config=config, **kwargs)


def make_tweet(tweet_id, timestamp, user=0, surface="jordan", entity=0):
    return Tweet(
        tweet_id=tweet_id,
        user=user,
        timestamp=timestamp,
        text=f"{surface} highlight reel",
        mentions=(MentionSpan(surface, true_entity=entity),),
    )


def assert_ckb_equal(a: ComplementedKnowledgebase, b: ComplementedKnowledgebase):
    assert a.total_links == b.total_links
    assert sorted(a.linked_entities()) == sorted(b.linked_entities())
    for entity_id in a.linked_entities():
        assert a.user_counts(entity_id) == b.user_counts(entity_id)
        assert a.link_columns(entity_id) == b.link_columns(entity_id)


# ---------------------------------------------------------------------- #
# error taxonomy
# ---------------------------------------------------------------------- #
class TestTaxonomy:
    def test_all_errors_share_one_base(self):
        for exc in (
            MalformedTweetError,
            UnknownUserError,
            StaleTimestampError,
            DuplicateTweetError,
            IndexUnavailableError,
            DeadlineExceededError,
            CircuitOpenError,
            CheckpointCorruptError,
        ):
            assert issubclass(exc, ReproError)

    def test_circuit_open_is_index_unavailable(self):
        # one except-clause in the linker covers both
        assert issubclass(CircuitOpenError, IndexUnavailableError)


# ---------------------------------------------------------------------- #
# dataclass validation (satellite)
# ---------------------------------------------------------------------- #
class TestTweetValidationInvariants:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Tweet(tweet_id=1, user=0, timestamp=0.0, text="   ")

    def test_rejects_nan_timestamp(self):
        with pytest.raises(ValueError):
            Tweet(tweet_id=1, user=0, timestamp=float("nan"), text="hi")

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            Tweet(tweet_id=1, user=0, timestamp=-1.0, text="hi")

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            Tweet(tweet_id=-1, user=0, timestamp=0.0, text="hi")
        with pytest.raises(ValueError):
            Tweet(tweet_id=1, user=-2, timestamp=0.0, text="hi")

    def test_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            MentionSpan("  ")

    def test_ckb_rejects_non_finite_link_timestamp(self, tiny_ckb):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                tiny_ckb.link_tweet(0, user=10, timestamp=bad)
        # the sorted-timestamp invariant survived the rejected writes
        timestamps = tiny_ckb.link_columns(0)[1]
        assert all(map(math.isfinite, timestamps))


# ---------------------------------------------------------------------- #
# validator + dead-letter queue
# ---------------------------------------------------------------------- #
class TestValidator:
    @pytest.mark.parametrize("mode", corruption_modes())
    def test_every_corruption_mode_rejected(self, mode):
        record = corrupt_record(make_tweet(7, 100.0), mode)
        with pytest.raises(MalformedTweetError):
            TweetValidator().validate(record)

    def test_unknown_author_rejected(self):
        validator = TweetValidator(known_users=range(10))
        with pytest.raises(UnknownUserError):
            validator.validate(make_tweet(1, 5.0, user=99))

    def test_whitespace_repaired_and_counted(self):
        validator = TweetValidator()
        tweet = validator.validate(
            {"tweet_id": 3, "user": 1, "timestamp": 9.0, "text": "  padded  "}
        )
        assert tweet.text == "padded"
        assert validator.repairs == 1

    def test_numeric_strings_coerced(self):
        tweet = TweetValidator().validate(
            {"tweet_id": "4", "user": "2", "timestamp": "8.5", "text": "ok"}
        )
        assert (tweet.tweet_id, tweet.user, tweet.timestamp) == (4, 2, 8.5)

    def test_mention_surfaces_accepted(self):
        tweet = TweetValidator().validate(
            {
                "tweet_id": 5,
                "user": 0,
                "timestamp": 1.0,
                "text": "jordan",
                "mentions": ["jordan", {"surface": "nba", "true_entity": 4}],
            }
        )
        assert [m.surface for m in tweet.mentions] == ["jordan", "nba"]
        assert tweet.mentions[1].true_entity == 4

    @pytest.mark.parametrize("field", ["tweet_id", "user"])
    def test_ids_past_the_int64_columns_dead_letter(self, field):
        """A KB column is signed 64-bit: an id it cannot hold is malformed
        here, not an OverflowError when the stream confirms the link."""
        largest = {"tweet_id": 1, "user": 0, "timestamp": 1.0, "text": "jordan"}
        largest[field] = 2**63 - 1
        ingestor = ResilientIngestor()
        assert len(ingestor.push(largest)) == 1
        assert ingestor.push({**largest, "tweet_id": 2, field: 2**63}) == []
        assert ingestor.stats.admitted == 1
        assert [d.reason for d in ingestor.dead_letters] == ["malformed"]

    def test_poison_records_dead_letter_not_raise(self):
        ingestor = ResilientIngestor()
        for mode in corruption_modes():
            assert ingestor.push(corrupt_record(make_tweet(11, 50.0), mode)) == []
        assert ingestor.stats.dead_lettered == len(corruption_modes())
        assert all(d.reason == "malformed" for d in ingestor.dead_letters)
        assert ingestor.stats.admitted == 0

    def test_dead_letter_reasons_structured(self):
        ingestor = ResilientIngestor(
            validator=TweetValidator(known_users=range(5))
        )
        ingestor.push(make_tweet(1, 100.0, user=0))
        ingestor.push(make_tweet(1, 101.0, user=0))  # duplicate id
        ingestor.push(make_tweet(2, 50.0, user=0))  # behind watermark
        ingestor.push(make_tweet(3, 102.0, user=99))  # unknown author
        assert all(isinstance(d, DeadLetter) for d in ingestor.dead_letters)
        reasons = [d.reason for d in ingestor.dead_letters]
        assert reasons == ["duplicate", "stale", "unknown_user"]
        assert ingestor.stats.duplicates == 1
        assert ingestor.stats.stale == 1


# ---------------------------------------------------------------------- #
# reordering buffer (acceptance b)
# ---------------------------------------------------------------------- #
class TestReorderingBuffer:
    def test_in_order_zero_lateness_passthrough(self):
        ingestor = ResilientIngestor(lateness=0.0)
        released = []
        for i in range(5):
            released.extend(ingestor.push(make_tweet(i, float(i))))
        released.extend(ingestor.flush())
        assert [t.tweet_id for t in released] == [0, 1, 2, 3, 4]

    def test_out_of_order_within_lateness_resorted(self):
        ingestor = ResilientIngestor(lateness=10.0)
        order = [3.0, 1.0, 2.0, 7.0, 5.0, 12.0, 11.0, 30.0]
        released = []
        for i, ts in enumerate(order):
            released.extend(ingestor.push(make_tweet(i, ts)))
        released.extend(ingestor.flush())
        assert [t.timestamp for t in released] == sorted(order)
        assert ingestor.stats.dead_lettered == 0

    def test_disorder_yields_identical_ckb_state(self, tiny_kb):
        """Acceptance (b): same complemented-KB state either way."""
        timestamps = [5.0, 1.0, 3.0, 2.0, 8.0, 6.0, 11.0, 9.0, 15.0, 13.0]
        disordered = [
            make_tweet(i, ts, user=10 + (i % 3), entity=i % 2)
            for i, ts in enumerate(timestamps)
        ]
        in_order = sorted(disordered, key=lambda t: t.timestamp)

        def run(tweets):
            ckb = ComplementedKnowledgebase(tiny_kb)
            ingestor = ResilientIngestor(lateness=10.0)
            emitted = ingestor.ingest(tweets) + ingestor.flush()
            for tweet in emitted:
                for mention in tweet.labeled_mentions():
                    ckb.link_tweet(
                        mention.true_entity, tweet.user, tweet.timestamp,
                        tweet.tweet_id,
                    )
            return ckb

        assert_ckb_equal(run(in_order), run(disordered))

    def test_late_beyond_bound_dead_lettered(self):
        ingestor = ResilientIngestor(lateness=5.0)
        ingestor.push(make_tweet(0, 100.0))
        assert ingestor.push(make_tweet(1, 94.0)) == []
        assert ingestor.dead_letters[0].reason == "stale"
        # within the bound is still fine
        ingestor.push(make_tweet(2, 96.0))
        assert ingestor.stats.admitted == 2

    def test_buffer_cap_forces_emission(self, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_BUFFER", 3)
        ingestor = ResilientIngestor(lateness=1e9)
        released = []
        for i in range(6):
            released.extend(ingestor.push(make_tweet(i, float(i))))
        # watermark never advances past anything, but the cap drains oldest
        assert len(released) == 3
        assert [t.tweet_id for t in released] == [0, 1, 2]
        assert ingestor.pending == 3

    def test_forced_release_never_lets_an_older_tweet_out(self, monkeypatch):
        """After a cap-forced release, an arrival that sorts before the
        released tweet is stale even within the lateness bound: letting it
        out would invert the release order."""
        monkeypatch.setattr(ingest, "MAX_BUFFER", 1)
        ingestor = ResilientIngestor(lateness=100.0)
        released = []
        for i, ts in enumerate([50.0, 60.0, 40.0]):
            released.extend(ingestor.push(make_tweet(i, ts)))
        released.extend(ingestor.flush())
        assert [t.timestamp for t in released] == [50.0, 60.0]
        assert [d.reason for d in ingestor.dead_letters] == ["stale"]
        assert ingestor.stats.stale == 1

    def test_equal_timestamp_orders_by_tweet_id(self):
        """A released ``(t, id)`` also bars a later arrival at the same
        ``t`` with a smaller id; a larger id is still admitted."""
        ingestor = ResilientIngestor(lateness=0.0)
        assert [t.tweet_id for t in ingestor.push(make_tweet(5, 10.0))] == [5]
        assert ingestor.push(make_tweet(3, 10.0)) == []
        assert [t.tweet_id for t in ingestor.push(make_tweet(7, 10.0))] == [7]
        assert [d.reason for d in ingestor.dead_letters] == ["stale"]


# ---------------------------------------------------------------------- #
# graceful degradation in the linker (acceptance a)
# ---------------------------------------------------------------------- #
class TestGracefulDegradation:
    def test_no_faults_results_identical_and_not_degraded(
        self, tiny_ckb, social_graph
    ):
        baseline = make_linker(tiny_ckb, social_graph)
        provider = FlakyReachabilityProvider(
            baseline._reachability, FaultSchedule()  # never faults
        )
        wrapped = make_linker(
            tiny_ckb, social_graph, reachability=provider,
            breaker=CircuitBreaker(),
        )
        a = baseline.link("jordan", user=0, now=100 * DAY)
        b = wrapped.link("jordan", user=0, now=100 * DAY)
        assert a.ranked == b.ranked
        assert not b.degraded and b.degradation is None

    def test_index_failure_degrades_but_ranks(self, tiny_ckb, social_graph):
        """Acceptance (a): degraded results are still ranked by β·S_r+γ·S_p."""
        healthy = make_linker(tiny_ckb, social_graph)
        failing = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(error_rate=1.0)
        )
        degraded_linker = make_linker(
            tiny_ckb, social_graph, reachability=failing
        )
        result = degraded_linker.link("jordan", user=0, now=100 * DAY)
        assert result.degraded
        assert result.degradation == "index_unavailable"
        assert result.ranked  # still a full ranking
        config = degraded_linker.config
        for candidate in result.ranked:
            assert candidate.interest == 0.0
            assert candidate.score == pytest.approx(
                config.beta * candidate.recency + config.gamma * candidate.popularity
            )
            assert candidate.score <= config.no_interest_bound + 1e-12

    def test_degraded_matches_zero_alpha_ranking(self, tiny_ckb, social_graph):
        healthy = make_linker(tiny_ckb, social_graph)
        failing = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(error_rate=1.0)
        )
        degraded_linker = make_linker(tiny_ckb, social_graph, reachability=failing)
        degraded = degraded_linker.link("jordan", user=0, now=100 * DAY)
        # the fallback must rank exactly like the no-interest bound scoring
        entity_order = [c.entity_id for c in degraded.ranked]
        recency = {c.entity_id: c.recency for c in degraded.ranked}
        popularity = {c.entity_id: c.popularity for c in degraded.ranked}
        config = degraded_linker.config
        expected = sorted(
            entity_order,
            key=lambda e: (
                -(config.beta * recency[e] + config.gamma * popularity[e]),
                e,
            ),
        )
        assert entity_order == expected

    def test_deadline_budget_degrades(self, tiny_ckb, social_graph):
        clock = FakeClock()
        healthy = make_linker(tiny_ckb, social_graph)
        slow = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(), clock=clock, latency=0.05
        )
        linker = make_linker(
            tiny_ckb,
            social_graph,
            config=LinkerConfig(
                burst_threshold=2, influential_users=2, deadline_ms=75.0
            ),
            reachability=slow,
            clock=clock,
        )
        result = linker.link("jordan", user=0, now=100 * DAY)
        assert result.degraded
        assert result.degradation == "deadline_exceeded"
        assert result.ranked

    def test_generous_deadline_not_degraded(self, tiny_ckb, social_graph):
        clock = FakeClock()
        healthy = make_linker(tiny_ckb, social_graph)
        slow = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(), clock=clock, latency=0.001
        )
        linker = make_linker(
            tiny_ckb,
            social_graph,
            config=LinkerConfig(
                burst_threshold=2, influential_users=2, deadline_ms=10_000.0
            ),
            reachability=slow,
            clock=clock,
        )
        result = linker.link("jordan", user=0, now=100 * DAY)
        assert not result.degraded

    def test_pipeline_and_search_surface_degradation(
        self, tiny_ckb, social_graph
    ):
        from repro.core.pipeline import TextLinkingPipeline

        healthy = make_linker(tiny_ckb, social_graph)
        failing = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(error_rate=1.0)
        )
        linker = make_linker(tiny_ckb, social_graph, reachability=failing)
        annotated = TextLinkingPipeline(linker).annotate(
            "jordan dunks again", user=0, now=100 * DAY
        )
        assert annotated.degraded

        store = TweetStore(
            [make_tweet(50, 99 * DAY, user=10)]
        )
        engine = PersonalizedSearchEngine(linker, store)
        response = engine.search("jordan", user=0, now=100 * DAY)
        assert response.degraded


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(3):
            with pytest.raises(IndexUnavailableError):
                breaker.call(self._fail)
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: 1)

    def test_half_open_probe_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=10.0, clock=clock
        )
        with pytest.raises(IndexUnavailableError):
            breaker.call(self._fail)
        assert breaker.state is BreakerState.OPEN
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.call(lambda: 42) == 42
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=5.0, clock=clock
        )
        with pytest.raises(IndexUnavailableError):
            breaker.call(self._fail)
        clock.advance(5.0)
        with pytest.raises(IndexUnavailableError):
            breaker.call(self._fail)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trip_count == 2

    def test_linker_fast_fails_while_open(self, tiny_ckb, social_graph):
        clock = FakeClock()
        healthy = make_linker(tiny_ckb, social_graph)
        failing = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(error_rate=1.0)
        )
        # the linker aborts interest scoring at the first provider error,
        # so each degraded link() records exactly one breaker failure
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        linker = make_linker(
            tiny_ckb, social_graph, reachability=failing, breaker=breaker
        )
        first = linker.link("jordan", user=0, now=100 * DAY)
        assert first.degraded
        assert breaker.state is BreakerState.OPEN
        calls_after_trip = failing.calls
        # breaker open: the provider is no longer even consulted
        second = linker.link("jordan", user=0, now=100 * DAY)
        assert second.degradation == "circuit_open"
        assert failing.calls == calls_after_trip

    def test_linker_recovers_after_probe(self, tiny_ckb, social_graph):
        clock = FakeClock()
        healthy = make_linker(tiny_ckb, social_graph)
        # fails long enough to trip, then heals
        flaky = FlakyReachabilityProvider(
            healthy._reachability, FaultSchedule(fail_first=2)
        )
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout=30.0, clock=clock
        )
        linker = make_linker(
            tiny_ckb, social_graph, reachability=flaky, breaker=breaker
        )
        assert linker.link("jordan", user=0, now=100 * DAY).degraded
        assert linker.link("jordan", user=0, now=100 * DAY).degraded
        assert breaker.state is BreakerState.OPEN
        clock.advance(30.0)
        recovered = linker.link("jordan", user=0, now=100 * DAY)
        assert not recovered.degraded
        assert breaker.state is BreakerState.CLOSED
        expected = healthy.link("jordan", user=0, now=100 * DAY)
        assert recovered.ranked == expected.ranked

    @staticmethod
    def _fail():
        raise IndexUnavailableError("down")


# ---------------------------------------------------------------------- #
# checkpoint / recovery
# ---------------------------------------------------------------------- #
class TestCheckpoint:
    def test_roundtrip_preserves_state(self, tiny_ckb, tiny_kb, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(snapshot(tiny_ckb, 42.0, [1, 2, 3]), path)
        loaded = load_checkpoint(path)
        assert loaded.watermark == 42.0
        assert loaded.applied_ids == frozenset({1, 2, 3})
        assert_ckb_equal(tiny_ckb, restore(tiny_kb, loaded, TINY_USERS))

    def test_gzip_roundtrip(self, tiny_ckb, tiny_kb, tmp_path):
        path = str(tmp_path / "ckpt.json.gz")
        save_checkpoint(snapshot(tiny_ckb), path)
        assert_ckb_equal(tiny_ckb, restore(tiny_kb, load_checkpoint(path), TINY_USERS))

    def test_checksum_corruption_detected(self, tiny_ckb, tmp_path):
        import re

        path = str(tmp_path / "ckpt.json")
        save_checkpoint(snapshot(tiny_ckb), path)
        with open(path) as handle:
            text = handle.read()
        # flip one payload digit inside the links array (9 -> 8 avoids
        # the no-op case where the original digit already is the target)
        mutated = re.sub(
            r'("links": \[\[)(\d)',
            lambda m: m.group(1) + ("8" if m.group(2) == "9" else "9"),
            text,
        )
        assert mutated != text
        with open(path, "w") as handle:
            handle.write(mutated)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tiny_ckb, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(snapshot(tiny_ckb), path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w") as handle:
            handle.write('{"magic": "something-else", "version": 1}')
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tiny_ckb, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(snapshot(tiny_ckb), path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace('"version": 1', '"version": 99'))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_missing_file_is_corrupt_error(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_empty_watermark_serialized_as_none(self, tiny_ckb, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(snapshot(tiny_ckb, float("-inf")), path)
        assert load_checkpoint(path).watermark is None


class TestCrashRecovery:
    """Acceptance (c): kill mid-ingest, restore, replay — same link counts."""

    LATENESS = 4.0

    @staticmethod
    def records():
        # deliberately out of order within the lateness bound
        timestamps = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0, 10.0, 9.0,
                      12.0, 11.0, 14.0, 13.0, 16.0, 15.0]
        return [
            make_tweet(i, ts, user=10 + (i % 3), entity=i % 2)
            for i, ts in enumerate(timestamps)
        ]

    def apply(self, ckb, tweets, applied):
        for tweet in tweets:
            for mention in tweet.labeled_mentions():
                ckb.link_tweet(
                    mention.true_entity, tweet.user, tweet.timestamp, tweet.tweet_id
                )
            applied.add(tweet.tweet_id)

    def uninterrupted(self, kb):
        ckb = ComplementedKnowledgebase(kb)
        ingestor = ResilientIngestor(lateness=self.LATENESS)
        applied = set()
        self.apply(ckb, ingestor.ingest(self.records()), applied)
        self.apply(ckb, ingestor.flush(), applied)
        return ckb

    def test_restore_and_replay_matches_uninterrupted(self, tiny_kb, tmp_path):
        path = str(tmp_path / "crash.json")
        records = self.records()

        # --- first incarnation: crash after 10 arrivals, checkpoint at 8 ---
        ckb = ComplementedKnowledgebase(tiny_kb)
        ingestor = ResilientIngestor(lateness=self.LATENESS)
        applied = set()
        for index, record in enumerate(records[:10], start=1):
            self.apply(ckb, ingestor.push(record), applied)
            if index == 8:
                save_checkpoint(snapshot(ckb, ingestor.watermark, applied), path)
        # crash: arrivals 9-10 and everything buffered after the checkpoint
        # are lost with the process

        # --- second incarnation: restore, then replay the full feed ---
        checkpoint = load_checkpoint(path)
        ckb2 = restore(tiny_kb, checkpoint, TINY_USERS)
        ingestor2 = ResilientIngestor(
            lateness=self.LATENESS, seen_ids=checkpoint.applied_ids
        )
        applied2 = set(checkpoint.applied_ids)
        self.apply(ckb2, ingestor2.ingest(records), applied2)
        self.apply(ckb2, ingestor2.flush(), applied2)

        # already-applied arrivals were deduplicated, not double-counted
        assert ingestor2.stats.duplicates == len(checkpoint.applied_ids)
        assert_ckb_equal(self.uninterrupted(tiny_kb), ckb2)

    def test_double_delivery_never_double_counts(self, tiny_kb):
        ckb = ComplementedKnowledgebase(tiny_kb)
        ingestor = ResilientIngestor(lateness=self.LATENESS)
        applied = set()
        records = self.records()
        self.apply(ckb, ingestor.ingest(records + records), applied)
        self.apply(ckb, ingestor.flush(), applied)
        assert ingestor.stats.duplicates == len(records)
        assert_ckb_equal(self.uninterrupted(tiny_kb), ckb)


# ---------------------------------------------------------------------- #
# defaults leave the batch/eval path untouched
# ---------------------------------------------------------------------- #
class TestDefaultsUnchanged:
    def test_default_linker_has_no_guards(self, tiny_ckb, social_graph):
        linker = make_linker(tiny_ckb, social_graph)
        assert linker._guarded_provider() is linker._reachability

    def test_eval_accuracy_identical_with_resilience_wiring(self, small_context):
        run_plain = small_context.run("ours")
        wired = SocialTemporalLinker(
            small_context.ckb,
            small_context.world.graph,
            config=small_context.config,
            reachability=FlakyReachabilityProvider(
                small_context.reachability_index, FaultSchedule()  # injection off
            ),
            propagation_network=small_context.propagation_network,
            breaker=CircuitBreaker(),
        )
        from repro.eval.harness import replay

        run_wired = replay(wired, small_context.test_dataset.tweets)
        assert run_plain.predictions == run_wired.predictions


# ---------------------------------------------------------------------- #
# breaker snapshot (typed introspection instead of __repr__ parsing)
# ---------------------------------------------------------------------- #
class TestBreakerSnapshot:
    EXPECTED_KEYS = {
        "schema_version", "state", "trip_count", "consecutive_failures",
        "half_open_successes", "failure_threshold", "success_threshold",
        "recovery_timeout_s", "time_to_probe_s", "trip_reasons",
    }

    def test_closed_snapshot_shape(self):
        snap = CircuitBreaker(clock=FakeClock()).snapshot()
        assert set(snap) == self.EXPECTED_KEYS
        assert snap["schema_version"] == 1
        assert snap["state"] == "closed"
        assert snap["trip_count"] == 0
        assert snap["time_to_probe_s"] is None
        assert snap["trip_reasons"] == []

    def test_open_snapshot_counts_down_to_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.snapshot()["state"] == "open"
        assert breaker.snapshot()["time_to_probe_s"] == 10.0
        clock.advance(7.5)
        snap = breaker.snapshot()
        assert snap["time_to_probe_s"] == 2.5
        assert snap["trip_count"] == 1
        assert snap["trip_reasons"] == ["1 consecutive failures"]

    def test_snapshot_resolves_elapsed_timeout_to_half_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        snap = breaker.snapshot()
        assert snap["state"] == "half_open"
        assert snap["time_to_probe_s"] is None

    def test_trip_reason_history_is_bounded_newest_last(self):
        from repro.resilience.breaker import TRIP_HISTORY_LIMIT

        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=1.0, clock=clock
        )
        trips = TRIP_HISTORY_LIMIT + 3
        for _ in range(trips):
            clock.advance(1.0)
            assert breaker.state is not BreakerState.OPEN
            breaker.record_failure()  # half-open probe failure re-trips
        snap = breaker.snapshot()
        assert snap["trip_count"] == trips
        assert len(snap["trip_reasons"]) == TRIP_HISTORY_LIMIT
        assert snap["trip_reasons"][-1] == "probe failed"

    def test_snapshot_is_json_round_trippable(self):
        import json

        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap


# ---------------------------------------------------------------------- #
# dead-letter overflow (bounded queue, oldest evicted first)
# ---------------------------------------------------------------------- #
class TestDeadLetterOverflow:
    @staticmethod
    def bad_record(index):
        # empty text is irreparable -> MalformedTweetError -> dead letter
        return {"tweet_id": index, "user": 0, "timestamp": 1.0, "text": "   "}

    def test_overflow_evicts_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_DEAD_LETTERS", 3)
        ingestor = ResilientIngestor()
        for index in range(5):
            assert ingestor.push(self.bad_record(index)) == []
        assert len(ingestor.dead_letters) == 3
        kept = [letter.record["tweet_id"] for letter in ingestor.dead_letters]
        assert kept == [2, 3, 4]  # 0 and 1 were evicted, oldest first
        assert ingestor.stats.dead_lettered == 5
        assert ingestor.stats.dead_letter_evictions == 2

    def test_exactly_at_capacity_keeps_everything(self, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_DEAD_LETTERS", 3)
        ingestor = ResilientIngestor()
        for index in range(3):
            ingestor.push(self.bad_record(index))
        assert len(ingestor.dead_letters) == 3
        assert ingestor.stats.dead_letter_evictions == 0

    def test_eviction_metric_emitted(self, monkeypatch):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        monkeypatch.setattr(ingest, "MAX_DEAD_LETTERS", 1)
        ingestor = ResilientIngestor()
        ingestor.push(self.bad_record(0))
        ingestor.push(self.bad_record(1))
        assert METRICS.counter("ingest.dead_letters.evicted") == 1

    def test_drain_returns_and_clears(self):
        ingestor = ResilientIngestor()
        ingestor.push(self.bad_record(0))
        ingestor.push(self.bad_record(1))
        drained = ingestor.drain()
        assert [letter.record["tweet_id"] for letter in drained] == [0, 1]
        assert all(isinstance(letter, DeadLetter) for letter in drained)
        assert len(ingestor.dead_letters) == 0
        assert ingestor.drain() == []
        # the counter survives the drain: it tracks loss, not occupancy
        assert ingestor.stats.dead_lettered == 2


# ---------------------------------------------------------------------- #
# checkpoint corruption matrix: truncations and bit flips must always
# surface as CheckpointCorruptError and leave the live KB untouched
# ---------------------------------------------------------------------- #
class TestCheckpointCorruptionMatrix:
    @staticmethod
    def write(tiny_ckb, tmp_path, suffix):
        path = str(tmp_path / f"ckpt.json{suffix}")
        save_checkpoint(snapshot(tiny_ckb, 42.0, [1, 2, 3]), path)
        with open(path, "rb") as handle:
            return path, handle.read()

    @staticmethod
    def assert_rejected_cleanly(path, tiny_kb, tiny_ckb, reference):
        """The one acceptance shape: typed error, no KB side effects."""
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
        assert_ckb_equal(tiny_ckb, reference)

    @staticmethod
    def assert_no_silent_corruption(path, tiny_kb, tiny_ckb, reference):
        """Weaker shape for mutations that may be semantic no-ops (gzip
        header metadata like MTIME/XFL/OS): either a typed rejection, or
        a load that restores *exactly* the reference state.  What must
        never happen is an untyped exception or a silently different KB.
        """
        try:
            loaded = load_checkpoint(path)
        except CheckpointCorruptError:
            pass
        else:
            assert_ckb_equal(restore(tiny_kb, loaded, TINY_USERS), reference)
        assert_ckb_equal(tiny_ckb, reference)

    @pytest.fixture
    def reference(self, tiny_kb, tiny_ckb):
        return restore(tiny_kb, snapshot(tiny_ckb), TINY_USERS)

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.35, 0.6, 0.9, 0.999])
    def test_truncations(
        self, tiny_kb, tiny_ckb, reference, tmp_path, suffix, fraction
    ):
        path, data = self.write(tiny_ckb, tmp_path, suffix)
        cut = int(len(data) * fraction)
        assert cut < len(data)
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        self.assert_rejected_cleanly(path, tiny_kb, tiny_ckb, reference)

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_single_bit_flips_across_the_file(
        self, tiny_kb, tiny_ckb, reference, tmp_path, suffix
    ):
        path, data = self.write(tiny_ckb, tmp_path, suffix)
        stride = max(1, len(data) // 40)
        for offset in range(0, len(data), stride):
            for bit in (0, 3, 7):
                mutated = bytearray(data)
                mutated[offset] ^= 1 << bit
                with open(path, "wb") as handle:
                    handle.write(bytes(mutated))
                if suffix == ".gz":
                    # gzip header metadata (MTIME/XFL/OS) doesn't affect
                    # the decompressed bytes; only silent *difference* is
                    # corruption there
                    self.assert_no_silent_corruption(
                        path, tiny_kb, tiny_ckb, reference
                    )
                else:
                    self.assert_rejected_cleanly(path, tiny_kb, tiny_ckb, reference)

    def test_bit_flip_in_every_checksum_region_byte(
        self, tiny_kb, tiny_ckb, reference, tmp_path
    ):
        path, data = self.write(tiny_ckb, tmp_path, "")
        start = data.index(b'"checksum"')
        for offset in range(start + len(b'"checksum": "'), start + 40):
            mutated = bytearray(data)
            mutated[offset] ^= 0x01
            with open(path, "wb") as handle:
                handle.write(bytes(mutated))
            self.assert_rejected_cleanly(path, tiny_kb, tiny_ckb, reference)

    @pytest.mark.parametrize(
        "bad, named",
        [
            ((9, 10, 4.0 * DAY, -1), "unknown entity id 9"),
            ((0, 10, math.nan, -1), "nan"),
            ((0, 10, math.inf, -1), "inf"),
            ((0, TINY_USERS, 4.0 * DAY, -1), "user 13 outside the follow graph"),
            ((0, -1, 4.0 * DAY, -1), "user -1 outside the follow graph"),
        ],
    )
    def test_link_the_kb_cannot_hold(
        self, tiny_kb, tiny_ckb, reference, tmp_path, bad, named
    ):
        """A link naming an unknown entity, a user outside the follow graph
        or a NaN / ±Infinity timestamp survives JSON and its checksum
        (``json`` writes and reads ``NaN`` and ``Infinity``), so it loads;
        ``restore`` must refuse it typed, naming the first such link."""
        links = snapshot(tiny_ckb).links
        middle = len(links) // 2
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(
            StreamCheckpoint(links=links[:middle] + (bad,) + links[middle:]), path
        )
        loaded = load_checkpoint(path)
        with pytest.raises(CheckpointCorruptError, match=f"link {middle} .*{named}"):
            restore(tiny_kb, loaded, TINY_USERS)
        assert_ckb_equal(tiny_ckb, reference)

    def test_valid_checkpoint_still_loads_after_matrix(
        self, tiny_kb, tiny_ckb, tmp_path
    ):
        # guard against the matrix passing because *nothing* loads
        path, _ = self.write(tiny_ckb, tmp_path, "")
        assert_ckb_equal(tiny_ckb, restore(tiny_kb, load_checkpoint(path), TINY_USERS))
