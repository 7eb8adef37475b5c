"""Complemented knowledgebase (Definition 5) tests."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DAY
from repro.eval.context import build_experiment
from repro.kb.checkpoint import restore, snapshot
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase


def kb_of(size: int) -> Knowledgebase:
    kb = Knowledgebase()
    for index in range(size):
        kb.add_entity(f"entity {index}")
    return kb


@pytest.fixture
def ckb():
    return ComplementedKnowledgebase(kb_of(2))


def state(ckb, groups):
    """Everything a load writes, timestamps bit for bit (``-0.0`` ≠ ``0.0``)."""
    entities = range(ckb.kb.num_entities)
    return (
        [
            [(u, t.hex(), i) for u, t, i in zip(*ckb.link_columns(e))]
            for e in entities
        ],
        [[t.hex() for t in sorted(ckb.link_columns(e)[1])] for e in entities],
        [list(ckb.user_counts(e).items()) for e in entities],
        [list(ckb.users_by_count(e)) for e in entities],
        [ckb.version(e) for e in entities],
        ckb.total_links,
        [
            ckb.recent_counts(group, now, window).tolist()
            for group in groups
            for now in (0.0, 3.0, 6.0)
            for window in (0.0, 2.0, 9.0)
        ],
        [(e, u, t.hex(), i) for e, u, t, i in snapshot(ckb).links],
    )


def digest(ckb) -> str:
    """sha256 over every linked entity's rows, sorted timestamps, user
    counts and version, then ``total_links``."""
    sha = hashlib.sha256()
    for e in ckb.linked_entities():
        rows = [(u, t.hex(), i) for u, t, i in zip(*ckb.link_columns(e))]
        stamps = [t.hex() for t in sorted(ckb.link_columns(e)[1])]
        counts = list(ckb.user_counts(e).items())
        sha.update(repr((e, rows, stamps, counts, ckb.version(e))).encode())
    sha.update(repr(ckb.total_links).encode())
    return sha.hexdigest()


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
        assert list(zip(*ckb.link_columns(1))) == []

    def test_user_counts_stores_nothing_on_a_miss(self, ckb):
        assert ckb.user_counts(0) == {} and ckb.community(0) == set()
        assert ckb.linked_entities() == []
        ckb.link_tweet(0, user=4, timestamp=1.0)
        ckb.link_tweet(0, user=4, timestamp=2.0)
        assert ckb.user_counts(0) == {4: 2}
        assert ckb.user_counts(0) is ckb.user_counts(0)

    def test_bulk_link(self, ckb):
        ckb.bulk_link([(0, 1, 0.0, -1), (1, 2, 1.0, -1)])
        assert ckb.total_links == 2
        assert ckb.linked_entities() == [0, 1]

    def test_tweets_keep_metadata(self, ckb):
        ckb.link_tweet(0, user=7, timestamp=42.0, tweet_id=99)
        assert list(zip(*ckb.link_columns(0))) == [(7, 42.0, 99)]


BULK_KB = kb_of(4)
#: Overlapping recency groups over ``BULK_KB``, one member never linked to
#: in most examples.
BULK_GROUPS = ((0, 1), (1, 2, 3), (3,))
# A small integer grid plus -0.0, so duplicate timestamps, out-of-order
# arrivals and the equal-but-distinct -0.0 / 0.0 pair are all common.
STAMPS = st.one_of(st.just(-0.0), st.integers(0, 6).map(float))
RECORDS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4), STAMPS, st.integers(-1, 50)),
    max_size=30,
)


class TestBulkLink:
    """``bulk_link`` writes each entity once; the state must be the one a
    ``link_tweet`` per record leaves, bit for bit."""

    @given(records=RECORDS, split=st.integers(0, 30), read_first=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bulk_suffix_equals_sequential(self, records, split, read_first):
        """The first ``split`` records go through ``link_tweet``, the rest
        through one ``bulk_link``; with ``read_first`` every group's merged
        timeline is live when the bulk load lands."""
        sequential = ComplementedKnowledgebase(BULK_KB)
        for record in records:
            sequential.link_tweet(*record)
        mixed = ComplementedKnowledgebase(BULK_KB)
        for record in records[:split]:
            mixed.link_tweet(*record)
        if read_first:
            for group in BULK_GROUPS:
                mixed.recent_counts(group, 3.0, 2.0)
        mixed.bulk_link(records[split:])
        assert state(mixed, BULK_GROUPS) == state(sequential, BULK_GROUPS)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((5, 2, 2.0, -1), KeyError),
            ((1, 2, math.nan, -1), ValueError),
            ((1, 2, -math.inf, -1), ValueError),
        ],
    )
    def test_one_bad_record_writes_nothing(self, ckb, bad, error):
        ckb.link_tweet(0, user=1, timestamp=1.0)
        ckb.recent_counts((0, 1), 1.0, 1.0)
        before, epoch = state(ckb, [(0, 1)]), ckb.link_epoch.value
        with pytest.raises(error, match=r"link 1 "):
            ckb.bulk_link([(1, 2, 2.0, 7), bad, (0, 3, 3.0, 8)])
        assert state(ckb, [(0, 1)]) == before
        assert ckb.link_epoch.value == epoch

    def test_keeps_the_records_own_objects(self, ckb):
        """Communities share the callers' user ints, as ``link_tweet``
        leaves them: the influence walk intersects them by identity."""
        user = int("1000001")
        ckb.bulk_link([(0, user, 12.5, -1)])
        assert next(iter(ckb.user_counts(0))) is user

    def test_truth_complement_digest(self, small_world):
        """The ``small_world`` truth complement, digest recorded from the
        per-record loader this bulk load replaced."""
        ckb = build_experiment(world=small_world, complement_method="truth").ckb
        assert ckb.total_links == 3076
        assert digest(ckb) == (
            "26e26f9449925d5ecc8d774133a18517653c47d6bfb05a5881e855a0c014066f"
        )


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


class TestVersion:
    """``version(e)`` counts writes to ``D_e``; it is what cached state
    derived from ``D_e`` is stamped with."""

    def test_strictly_increasing_under_every_write(self, ckb):
        seen = [ckb.version(0)]
        ckb.link_tweet(0, user=1, timestamp=0.0)
        seen.append(ckb.version(0))
        ckb.bulk_link([(0, 2, 10 * DAY, -1), (0, 2, 11 * DAY, -1)])
        seen.append(ckb.version(0))
        assert seen == [0, 1, 3]


_writes = st.lists(
    st.one_of(
        st.tuples(st.just("one"), st.integers(0, 2), st.integers(0, 6)),
        st.tuples(
            st.just("bulk"),
            st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6)), max_size=6),
        ),
    ),
    max_size=30,
)


class TestCountOrder:
    """``users_by_count(e)`` is ``U_e`` ordered by ``(-|D_e^u|, u)`` and
    ``version(e) == count(e)`` under any mix of writers, and after a
    checkpoint round trip."""

    @staticmethod
    def assert_invariants(ckb):
        for e in range(ckb.kb.num_entities):
            counts = ckb.user_counts(e)
            assert ckb.users_by_count(e) == sorted(counts, key=lambda u: (-counts[u], u))
            assert ckb.version(e) == ckb.count(e)

    @settings(max_examples=60, deadline=None)
    @given(_writes)
    def test_any_interleaving_of_writers(self, writes):
        ckb = ComplementedKnowledgebase(kb_of(3))
        for kind, *args in writes:
            if kind == "one":
                entity, user = args
                ckb.link_tweet(entity, user, timestamp=float(user))
            else:
                ckb.bulk_link((e, u, float(u), -1) for e, u in args[0])
            self.assert_invariants(ckb)
        self.assert_invariants(restore(ckb.kb, snapshot(ckb), num_nodes=7))


class TestLinkTweetAllOrNothing:
    """A value one column cannot hold fails the whole ``link_tweet``, as it
    fails a whole ``bulk_link``: nothing of the link is written, whether
    the entity has links already or not."""

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((2**70, 6.0, 8), OverflowError),
            ((2, "6.0", 8), TypeError),
            ((2, 6.0, 2**70), OverflowError),
        ],
        ids=["user", "timestamp", "tweet_id"],
    )
    def test_failed_write_changes_nothing(self, ckb, bad, error):
        ckb.link_tweet(0, 1, 5.0, 7)
        ckb.recent_counts((0, 1), 6.0, 6.0)  # the merged timeline is live

        def written():
            return (
                state(ckb, [(0, 1)]),
                ckb.linked_entities(),
                [[len(column) for column in ckb.link_columns(e)] for e in (0, 1)],
                [ckb.count(e) for e in (0, 1)],
                ckb.link_epoch.value,
            )

        before = written()
        for entity_id in (0, 1):
            with pytest.raises(error):
                ckb.link_tweet(entity_id, *bad)
            assert written() == before
        ckb.link_tweet(0, 2, 6.0, 8)  # the next good link lands whole
        assert [len(column) for column in ckb.link_columns(0)] == [2, 2, 2]
        assert ckb.recent_counts((0, 1), 6.0, 6.0).tolist() == [2, 0]
