"""Link explanation tests."""

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.explain import explain_link
from repro.core.linker import SocialTemporalLinker
from repro.graph.digraph import DiGraph

from conftest import JORDAN_LINKS, jordan_world


@pytest.fixture
def linker(tiny_ckb):
    graph = DiGraph(
        13,
        [
            (0, 10),  # Alice follows @NBAOfficial
        ],
    )
    return SocialTemporalLinker(
        tiny_ckb, graph, config=LinkerConfig(burst_threshold=2, influential_users=2)
    )


class TestExplainLink:
    def test_winner_evidence(self, linker):
        result = linker.link("jordan", user=0, now=8 * DAY)
        explanation = explain_link(linker, result)
        winner = explanation.winner
        assert winner.entity_id == 0
        assert winner.title == "michael jordan (basketball)"
        # @NBAOfficial (user 10) is the influential evidence, followed directly
        top_evidence = winner.interest_evidence[0]
        assert top_evidence.user == 10
        assert top_evidence.reachability == 1.0
        assert "directly follows user 10" in top_evidence.describe()

    def test_counts_match_ckb(self, linker, tiny_ckb):
        result = linker.link("jordan", user=0, now=8 * DAY)
        explanation = explain_link(linker, result)
        winner = explanation.winner
        assert winner.total_tweets == tiny_ckb.count(0)
        assert winner.recent_tweets == tiny_ckb.recent_count(0, 8 * DAY, 3 * DAY)

    def test_top_candidates_limit(self, linker):
        result = linker.link("jordan", user=0, now=8 * DAY)
        explanation = explain_link(linker, result, top_candidates=2)
        assert len(explanation.candidates) == 2

    def test_render_readable(self, linker):
        result = linker.link("jordan", user=0, now=8 * DAY)
        text = explain_link(linker, result).render()
        assert "'jordan' for user 0:" in text
        assert "michael jordan (basketball)" in text
        assert "recent tweets in the window" in text

    def test_no_candidates(self, linker):
        result = linker.link("qqqqqq", user=0, now=0.0)
        explanation = explain_link(linker, result)
        assert explanation.winner is None
        assert "no candidates" in explanation.render()

    def test_unreachable_evidence_described(self, linker):
        # user 6 follows nobody: evidence lines say "no path"
        result = linker.link("jordan", user=6, now=8 * DAY)
        explanation = explain_link(linker, result)
        descriptions = " ".join(
            e.describe() for c in explanation.candidates for e in c.interest_evidence
        )
        assert "no path" in descriptions

    @pytest.mark.parametrize("confirms", [1, 2])
    def test_evidence_backs_the_interest_share(self, confirms):
        """The explanation reads the rankings ``link()`` scored with: each
        ``interest_share`` is the normalised mean of the reachabilities
        listed beside it (PR 22 printed 1.0 next to "no path to user 2")."""
        ckb, graph = jordan_world(JORDAN_LINKS)
        linker = SocialTemporalLinker(
            ckb, graph, config=LinkerConfig(influential_users=1)
        )
        linker.link("jordan", user=0, now=10 * DAY)
        for _ in range(confirms):
            linker.confirm_link(0, user=1, timestamp=10 * DAY)
        explanation = explain_link(linker, linker.link("jordan", 0, 10 * DAY))
        means = {
            c.entity_id: sum(e.reachability for e in c.interest_evidence)
            / len(c.interest_evidence)
            for c in explanation.candidates
        }
        total = sum(means.values())
        assert len(means) == 2
        for candidate in explanation.candidates:
            expected = means[candidate.entity_id] / total if total else 0.0
            assert candidate.interest_share == expected


class TestConnectivityMetric:
    def test_buckets_partition_users(self, small_context):
        from repro.eval.metrics import accuracy_by_connectivity

        run = small_context.social_temporal().run(small_context.test_dataset)
        buckets = accuracy_by_connectivity(
            small_context.test_dataset.tweets,
            run.predictions,
            small_context.world.graph,
        )
        total = sum(report.num_tweets for report in buckets.values())
        assert total == sum(
            1
            for t in small_context.test_dataset.tweets
            if t.labeled_mentions()
        )

    def test_connected_users_gain_from_social_context(self, small_context):
        from repro.eval.metrics import accuracy_by_connectivity

        run = small_context.social_temporal().run(small_context.test_dataset)
        buckets = accuracy_by_connectivity(
            small_context.test_dataset.tweets,
            run.predictions,
            small_context.world.graph,
            thresholds=(0, 3),
        )
        isolated = buckets.get("followees 0-2")
        connected = buckets.get("followees 3+")
        if isolated and connected and isolated.num_mentions > 30:
            assert connected.mention_accuracy > isolated.mention_accuracy
