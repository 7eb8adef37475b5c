"""Micro-batch linker tests: correctness vs the per-mention path."""

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import SocialTemporalLinker
from repro.graph.digraph import DiGraph


@pytest.fixture
def linker(tiny_ckb):
    graph = DiGraph(13, [(0, 10), (5, 11)])
    return SocialTemporalLinker(
        tiny_ckb, graph, config=LinkerConfig(burst_threshold=2, influential_users=2)
    )


class TestExactness:
    def test_output_order_preserved(self, linker):
        batch = MicroBatchLinker(linker)
        requests = [
            LinkRequest("nba", user=0, now=0.0),
            LinkRequest("jordan", user=5, now=0.0),
        ]
        results = batch.link_batch(requests)
        assert [r.surface for r in results] == ["nba", "jordan"]
        assert [r.user for r in results] == [0, 5]

    def test_unknown_surface_empty(self, linker):
        batch = MicroBatchLinker(linker)
        results = batch.link_batch([LinkRequest("qqqqqq", user=0, now=0.0)])
        assert results[0].ranked == ()

    def test_empty_batch(self, linker):
        assert MicroBatchLinker(linker).link_batch([]) == []


class TestBucketing:
    def test_bucketed_recency_shared(self, linker):
        batch = MicroBatchLinker(linker, recency_bucket=60.0)
        near = [
            LinkRequest("jordan", user=0, now=8 * DAY + 1.0),
            LinkRequest("jordan", user=0, now=8 * DAY + 59.0),
        ]
        a, b = batch.link_batch(near)
        assert [c.score for c in a.ranked] == [c.score for c in b.ranked]

    def test_negative_bucket_rejected(self, linker):
        with pytest.raises(ValueError):
            MicroBatchLinker(linker, recency_bucket=-1.0)


class TestLinkTweets:
    def test_grouped_per_tweet(self, linker, small_world):
        batch = MicroBatchLinker(linker)
        # reuse structure only — build simple tweets against the tiny KB
        from repro.stream.tweet import MentionSpan, Tweet

        tweets = [
            Tweet(
                tweet_id=1, user=0, timestamp=8 * DAY, text="jordan nba",
                mentions=(MentionSpan("jordan"), MentionSpan("nba")),
            ),
            Tweet(
                tweet_id=2, user=5, timestamp=8 * DAY, text="jordan",
                mentions=(MentionSpan("jordan"),),
            ),
        ]
        grouped = batch.link_tweets(tweets)
        assert len(grouped[1]) == 2
        assert len(grouped[2]) == 1
        assert grouped[2][0].user == 5


class _TogglingProvider:
    """A reachability provider whose failures can be switched on and off."""

    def __init__(self, error):
        self.failing = True
        self._error = error

    def reachability(self, source: int, target: int) -> float:
        if self.failing:
            raise self._error("injected index fault")
        return 0.5


class TestDegradation:
    """The batch path rides the same degradation ladder as link()."""

    def _linker(self, tiny_ckb, provider):
        from repro.config import LinkerConfig
        from repro.core.linker import SocialTemporalLinker
        from repro.graph.digraph import DiGraph

        graph = DiGraph(13, [(0, 10)])
        return SocialTemporalLinker(
            tiny_ckb,
            graph,
            config=LinkerConfig(burst_threshold=2, influential_users=2),
            reachability=provider,
        )

    @pytest.mark.parametrize(
        "error_name, degradation",
        [
            ("IndexUnavailableError", "index_unavailable"),
            ("DeadlineExceededError", "deadline_exceeded"),
            ("CircuitOpenError", "circuit_open"),
        ],
    )
    def test_fault_degrades_to_no_interest_bound(
        self, tiny_ckb, error_name, degradation
    ):
        import repro.errors as errors

        provider = _TogglingProvider(getattr(errors, error_name))
        linker = self._linker(tiny_ckb, provider)
        batch = MicroBatchLinker(linker)
        request = LinkRequest("jordan", user=0, now=8 * DAY)
        result = batch.link_batch([request])[0]
        assert result.degraded
        assert result.degradation == degradation
        assert result.ranked  # still ranked by beta*S_r + gamma*S_p
        # parity with the sequential degraded path
        single = linker.link(request.surface, request.user, request.now)
        assert single.degradation == result.degradation
        for a, b in zip(result.ranked, single.ranked):
            assert a.entity_id == b.entity_id
            assert a.score == pytest.approx(b.score)

    def test_degraded_interest_not_cached(self, tiny_ckb):
        from repro.errors import IndexUnavailableError

        provider = _TogglingProvider(IndexUnavailableError)
        linker = self._linker(tiny_ckb, provider)
        batch = MicroBatchLinker(linker)
        request = LinkRequest("jordan", user=0, now=8 * DAY)
        assert batch.link_batch([request])[0].degraded
        provider.failing = False  # index recovers
        recovered = batch.link_batch([request])[0]
        assert not recovered.degraded
        assert recovered.degradation is None

    def test_healthy_interest_cached_within_batch(self, tiny_ckb):
        from repro.errors import IndexUnavailableError

        provider = _TogglingProvider(IndexUnavailableError)
        provider.failing = False
        linker = self._linker(tiny_ckb, provider)
        batch = MicroBatchLinker(linker)
        request = LinkRequest("jordan", user=0, now=8 * DAY)
        first, second = batch.link_batch([request, request])
        assert not first.degraded and not second.degraded
        assert [c.score for c in first.ranked] == [c.score for c in second.ranked]

    def test_fault_isolated_per_request_pair(self, tiny_ckb):
        """A faulting user-interest lookup degrades only its own requests."""
        from repro.errors import IndexUnavailableError

        class _UserSelectiveProvider:
            def reachability(self, source: int, target: int) -> float:
                if source == 0:
                    raise IndexUnavailableError("user 0's shard is down")
                return 0.5

        linker = self._linker(tiny_ckb, _UserSelectiveProvider())
        batch = MicroBatchLinker(linker)
        broken, healthy = batch.link_batch(
            [
                LinkRequest("jordan", user=0, now=8 * DAY),
                LinkRequest("jordan", user=5, now=8 * DAY),
            ]
        )
        assert broken.degradation == "index_unavailable"
        assert healthy.degradation is None
