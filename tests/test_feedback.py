"""Interactive feedback session (Appendix D) tests."""

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.feedback import FeedbackOutcome, InteractiveLinkingSession
from repro.core.linker import SocialTemporalLinker
from repro.errors import IndexUnavailableError
from repro.graph.digraph import DiGraph


@pytest.fixture
def session(tiny_ckb):
    graph = DiGraph(13, [(0, 10)])
    linker = SocialTemporalLinker(
        tiny_ckb, graph, config=LinkerConfig(burst_threshold=2, influential_users=2)
    )
    return InteractiveLinkingSession(linker)


class TestPropose:
    def test_confident_link(self, session):
        round_ = session.propose("jordan", user=0, now=100 * DAY)
        assert round_.outcome is FeedbackOutcome.LINKED
        assert round_.proposals[0].entity_id == 0

    def test_unknown_surface(self, session):
        round_ = session.propose("qqqqqq", user=0, now=0.0)
        assert round_.outcome is FeedbackOutcome.UNKNOWN_SURFACE
        assert round_.proposals == []

    def test_no_interest_abstains(self, session):
        # user 6 is isolated and nothing bursts at day 100: the best score
        # is popularity-only, i.e. <= beta + gamma -> new-meaning signal.
        round_ = session.propose("jordan", user=6, now=100 * DAY)
        assert round_.outcome is FeedbackOutcome.NEEDS_NEW_MEANING

    def test_index_outage_proposes_the_degraded_ranking(self, tiny_ckb):
        """A degraded result never measured interest, so the no-interest
        bound does not apply: the recency + popularity ranking is proposed
        instead of asking the user for a new meaning."""

        class Outage:
            def reachability(self, source, target):
                raise IndexUnavailableError("index down")

        linker = SocialTemporalLinker(
            tiny_ckb,
            DiGraph(13),
            config=LinkerConfig(burst_threshold=2, influential_users=2),
            reachability=Outage(),
        )
        round_ = InteractiveLinkingSession(linker).propose("jordan", 0, 100 * DAY)
        assert round_.result.degradation == "index_unavailable"
        assert round_.result.best.score <= linker.config.no_interest_bound
        assert round_.outcome is FeedbackOutcome.LINKED
        assert round_.proposals == [round_.result.best]

    def test_rounds_recorded(self, session):
        session.propose("jordan", user=0, now=100 * DAY)
        session.propose("nba", user=0, now=100 * DAY)
        assert len(session.rounds) == 2


class TestConfirm:
    def test_confirm_updates_kb(self, session):
        round_ = session.propose("jordan", user=0, now=100 * DAY)
        ckb = session._linker.ckb
        before = ckb.count(0)
        session.confirm(round_, entity_id=0)
        assert ckb.count(0) == before + 1
        assert round_.confirmed_entity == 0


class TestNewMeaning:
    def test_add_new_meaning_warms_up(self, session):
        round_ = session.propose("jordan", user=6, now=100 * DAY)
        assert round_.outcome is FeedbackOutcome.NEEDS_NEW_MEANING
        new_id = session.add_new_meaning(round_, title="jordan (novel startup)")
        ckb = session._linker.ckb
        # the surface now maps to the new meaning too
        assert new_id in session._linker.candidate_generator.candidates("jordan")
        # and the triggering tweet seeded its community (warm-up)
        assert ckb.count(new_id) == 1
        assert round_.confirmed_entity == new_id

    def test_new_surface_entirely(self, session):
        round_ = session.propose("brandnewthing", user=0, now=0.0)
        assert round_.outcome is FeedbackOutcome.UNKNOWN_SURFACE
        new_id = session.add_new_meaning(round_, title="brand new thing")
        result = session._linker.link("brandnewthing", user=0, now=1.0)
        assert result.best.entity_id == new_id
