"""Complemented knowledgebase (Definition 5) tests."""

import pytest

from repro.config import DAY
from repro.kb.complemented import ComplementedKnowledgebase
from repro.errors import IndexUnavailableError
from repro.kb.knowledgebase import Knowledgebase
from repro.testing.faults import FaultSchedule, FlakyKnowledgebase


@pytest.fixture
def ckb():
    kb = Knowledgebase()
    kb.add_entity("a")
    kb.add_entity("b")
    return ComplementedKnowledgebase(kb)


class TestLinking:
    def test_counts_and_communities(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=0.0)
        ckb.link_tweet(0, user=2, timestamp=1.0)
        ckb.link_tweet(0, user=1, timestamp=2.0)
        assert ckb.count(0) == 3
        assert ckb.community(0) == {1, 2}
        assert ckb.user_count(0, 1) == 2
        assert ckb.user_count(0, 99) == 0

    def test_unknown_entity_rejected(self, ckb):
        with pytest.raises(KeyError):
            ckb.link_tweet(5, user=1, timestamp=0.0)

    def test_unlinked_entity_defaults(self, ckb):
        assert ckb.count(1) == 0
        assert ckb.community(1) == set()
        assert ckb.tweets_of(1) == []

    def test_user_counts_stores_nothing_on_a_miss(self, ckb):
        assert ckb.user_counts(0) == {} and ckb.community(0) == set()
        assert ckb.linked_entities() == []
        ckb.link_tweet(0, user=4, timestamp=1.0)
        ckb.link_tweet(0, user=4, timestamp=2.0)
        assert ckb.user_counts(0) == {4: 2}
        assert ckb.user_counts(0) is ckb.user_counts(0)

    def test_bulk_link(self, ckb):
        ckb.bulk_link([(0, 1, 0.0), (1, 2, 1.0)])
        assert ckb.total_links == 2
        assert ckb.linked_entities() == [0, 1]

    def test_tweets_keep_metadata(self, ckb):
        ckb.link_tweet(0, user=7, timestamp=42.0, tweet_id=99)
        record = ckb.tweets_of(0)[0]
        assert (record.user, record.timestamp, record.tweet_id) == (7, 42.0, 99)


class TestRecencyWindow:
    def test_recent_count_window(self, ckb):
        for day in range(10):
            ckb.link_tweet(0, user=1, timestamp=day * DAY)
        # window of 3 days ending at day 9 covers days 6, 7, 8, 9
        assert ckb.recent_count(0, now=9 * DAY, window=3 * DAY) == 4

    def test_future_tweets_excluded(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=10 * DAY)
        assert ckb.recent_count(0, now=5 * DAY, window=3 * DAY) == 0

    def test_out_of_order_insertion(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=5 * DAY)
        ckb.link_tweet(0, user=1, timestamp=1 * DAY)
        ckb.link_tweet(0, user=1, timestamp=3 * DAY)
        assert ckb.recent_count(0, now=5 * DAY, window=2.5 * DAY) == 2

    def test_empty_entity(self, ckb):
        assert ckb.recent_count(1, now=0.0, window=DAY) == 0

    def test_boundary_inclusive(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=7 * DAY)
        assert ckb.recent_count(0, now=10 * DAY, window=3 * DAY) == 1


class TestPruning:
    def test_prune_removes_old_links(self, ckb):
        for day in range(10):
            ckb.link_tweet(0, user=1, timestamp=day * DAY)
        removed = ckb.prune_before(5 * DAY)
        assert removed == 5
        assert ckb.count(0) == 5
        assert ckb.total_links == 5
        assert ckb.recent_count(0, 9 * DAY, 100 * DAY) == 5

    def test_prune_drops_empty_entities(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=0.0)
        ckb.link_tweet(1, user=2, timestamp=10 * DAY)
        ckb.prune_before(5 * DAY)
        assert ckb.linked_entities() == [1]
        assert ckb.community(0) == set()

    def test_prune_keeps_user_counts_consistent(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=0.0)
        ckb.link_tweet(0, user=1, timestamp=10 * DAY)
        ckb.link_tweet(0, user=2, timestamp=1.0 * DAY)
        ckb.prune_before(5 * DAY)
        assert ckb.user_count(0, 1) == 1
        assert ckb.user_count(0, 2) == 0
        assert ckb.community(0) == {1}

    def test_prune_noop(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=10 * DAY)
        assert ckb.prune_before(0.0) == 0
        assert ckb.count(0) == 1


class TestVersion:
    """``version(e)`` counts writes to ``D_e``; it is what cached state
    derived from ``D_e`` is stamped with."""

    def test_strictly_increasing_under_every_write(self, ckb):
        seen = [ckb.version(0)]
        ckb.link_tweet(0, user=1, timestamp=0.0)
        seen.append(ckb.version(0))
        ckb.bulk_link([(0, 2, 10 * DAY), (0, 2, 11 * DAY)])
        seen.append(ckb.version(0))
        assert ckb.prune_before(5 * DAY) == 1
        seen.append(ckb.version(0))
        assert seen == [0, 1, 3, 4]

    def test_prune_leaves_untouched_entities_alone(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=0.0)
        ckb.link_tweet(1, user=2, timestamp=10 * DAY)
        before = ckb.version(1)
        ckb.prune_before(5 * DAY)
        assert ckb.version(1) == before
        assert ckb.prune_before(5 * DAY) == 0  # nothing left to drop
        assert ckb.version(0) == 2

    def test_prune_then_relink_restores_count_not_version(self, ckb):
        ckb.link_tweet(0, user=1, timestamp=0.0)
        count, version = ckb.count(0), ckb.version(0)
        ckb.prune_before(DAY)  # D_0 emptied and dropped; its version is not
        ckb.link_tweet(0, user=2, timestamp=2 * DAY)
        assert ckb.count(0) == count
        assert ckb.version(0) > version

    def test_flaky_proxy_forwards_and_failed_write_does_not_bump(self, ckb):
        flaky = FlakyKnowledgebase(ckb, FaultSchedule(fail_calls=[1]))
        flaky.link_tweet(0, user=1, timestamp=0.0)
        with pytest.raises(IndexUnavailableError):
            flaky.link_tweet(0, user=1, timestamp=1.0)
        assert flaky.version(0) == ckb.version(0) == 1
