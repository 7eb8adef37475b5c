"""``recent_counts`` (one merged timeline per group) ≡ ``recent_count``.

The group read is an index over the members' links: their times as one
``array('d')`` merged from the link-time columns, and whose link each
one is.  It is kept by the knowledgebase's own writers.  Nothing here
times anything: every test interleaves writes with reads and holds the
group answer to the per-entity one, and the timeline itself to the
stable merge of the members' sorted timestamp lists, with ``==``.
"""

from __future__ import annotations

import threading
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.checkpoint import restore, snapshot
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase

WIDE = 300  # more members than a one-byte column can number


def wide_kb() -> Knowledgebase:
    kb = Knowledgebase()
    for index in range(WIDE):
        kb.add_entity(f"entity {index}")
    return kb


KB = wide_kb()
#: Overlapping groups (2 is in two, everything is in the wide one), a
#: singleton, a group with a member nothing ever links to (7), the empty
#: group, and a repeated member.
GROUPS = (
    (0, 1, 2),
    (2, 3, 4),
    (5,),
    (6, 7),
    tuple(range(WIDE)),
    (),
    (1, 1),
)
#: Entities that receive links; 299 has a column past 255 in the wide group.
LINKED = (0, 1, 2, 3, 4, 5, 6, WIDE - 1)

# A small integer grid, so t == now, t == now − window, equal timestamps,
# out-of-order arrivals and links in the reader's future are all common.
TICKS = st.integers(0, 12).map(float)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("link"), st.sampled_from(LINKED), TICKS),
        st.tuples(
            st.just("bulk"),
            st.lists(st.tuples(st.sampled_from(LINKED), TICKS), max_size=4),
        ),
        st.tuples(
            st.just("read"), st.integers(0, len(GROUPS) - 1), TICKS, st.integers(0, 6)
        ),
        st.tuples(st.just("restore")),
    ),
    max_size=40,
)


def stable_merge(ckb, group):
    """What a group's timeline must be: its members' sorted time columns
    merged stably — by time, then member, then arrival — as
    ``(times, owners)``."""
    merged = sorted(
        (
            (float(t), column)
            for column, entity_id in enumerate(group)
            for t in sorted(ckb.link_columns(entity_id)[1])
        ),
        key=lambda pair: pair[0],
    )
    return [t for t, _ in merged], [column for _, column in merged]


def assert_timelines_are_merges(ckb) -> None:
    for group, (times, owners) in ckb._timelines.items():
        assert isinstance(times, array) and times.typecode == "d", group
        assert (list(times), list(owners)) == stable_merge(ckb, group), group


def assert_group_equals_members(ckb, group, now, window) -> None:
    counts = ckb.recent_counts(group, now, window)
    assert counts.tolist() == [ckb.recent_count(e, now, window) for e in group], (
        group, now, window,
    )


class TestGroupReadEqualsEntityRead:
    @given(
        operations=OPERATIONS,
        first_read=st.sets(st.integers(0, len(GROUPS) - 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_writes_and_reads(self, operations, first_read):
        """Groups in ``first_read`` get their timeline before any write
        (and are then maintained link by link); the others are merged by
        whichever read meets them first, possibly after a bulk load
        dropped the timeline of every group it touched."""
        ckb = ComplementedKnowledgebase(KB)
        for index in sorted(first_read):
            assert_group_equals_members(ckb, GROUPS[index], 6.0, 3.0)
        for operation in operations:
            if operation[0] == "link":
                ckb.link_tweet(operation[1], user=0, timestamp=operation[2])
            elif operation[0] == "bulk":
                ckb.bulk_link((e, 0, t, -1) for e, t in operation[1])
            elif operation[0] == "read":
                _, index, now, window = operation
                assert_group_equals_members(ckb, GROUPS[index], now, float(window))
            else:  # timelines are not serialised; the restored KB answers the same
                ckb = restore(KB, snapshot(ckb), num_nodes=1)
        for group in GROUPS:
            for now in (0.0, 6.0, 12.0, 20.0):
                for window in (0.0, 3.0, 50.0):
                    assert_group_equals_members(ckb, group, now, window)

    def test_window_edges(self):
        ckb = ComplementedKnowledgebase(KB)
        group = (0, 1, 2)
        assert ckb.recent_counts(group, 10.0, 3.0).tolist() == [0, 0, 0]
        ckb.link_tweet(0, user=1, timestamp=10.0)  # t == now: inside
        ckb.link_tweet(1, user=1, timestamp=7.0)  # t == now − window: inside
        ckb.link_tweet(1, user=1, timestamp=6.5)  # older: outside
        ckb.link_tweet(2, user=1, timestamp=10.5)  # the future: outside
        assert ckb.recent_counts(group, 10.0, 3.0).tolist() == [1, 1, 0]
        assert ckb.recent_counts(group, 10.5, 4.0).tolist() == [1, 2, 1]

    def test_bulk_link_drops_touched_timelines_then_relink(self):
        ckb = ComplementedKnowledgebase(KB)
        touched, untouched = (0, 1), (5,)
        ckb.link_tweet(0, user=1, timestamp=1.0)
        assert ckb.recent_counts(touched, 2.0, 5.0).tolist() == [1, 0]
        assert ckb.recent_counts(untouched, 2.0, 5.0).tolist() == [0]
        kept = ckb._timelines[untouched]
        ckb.bulk_link([(1, 1, 2.0, -1)])
        assert touched not in ckb._timelines
        assert ckb._timelines[untouched] is kept
        assert ckb.recent_counts(touched, 2.0, 5.0).tolist() == [1, 1]
        ckb.link_tweet(1, user=1, timestamp=2.0)
        assert ckb.recent_counts(touched, 2.0, 5.0).tolist() == [1, 2]

    def test_wide_group_numbers_members_past_one_byte(self):
        ckb = ComplementedKnowledgebase(KB)
        group = tuple(range(WIDE))
        for entity_id in (0, 255, 256, WIDE - 1):
            ckb.link_tweet(entity_id, user=1, timestamp=1.0)
        counts = ckb.recent_counts(group, 1.0, 1.0)
        assert counts.nonzero()[0].tolist() == [0, 255, 256, WIDE - 1]
        ckb.link_tweet(257, user=1, timestamp=0.5)
        assert ckb.recent_counts(group, 1.0, 1.0)[257] == 1


class TestTimelineIsTheStableMerge:
    @given(
        operations=st.lists(
            st.one_of(
                # link_tweet keeps an int time as given; the timeline holds doubles
                st.tuples(
                    st.just("link"),
                    st.sampled_from(LINKED),
                    st.one_of(TICKS, st.integers(0, 12)),
                ),
                st.tuples(
                    st.just("bulk"),
                    st.lists(st.tuples(st.sampled_from(LINKED), TICKS), max_size=4),
                ),
                st.tuples(st.just("read"), st.integers(0, len(GROUPS) - 1)),
                st.tuples(st.just("restore")),
            ),
            max_size=40,
        ),
        first_read=st.sets(st.integers(0, len(GROUPS) - 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_after_every_write(self, operations, first_read):
        """Merged on first read, extended by ``link_tweet``, dropped by
        ``bulk_link``, rebuilt after a restore: every timeline the CKB
        holds equals a fresh stable merge after each step."""
        ckb = ComplementedKnowledgebase(KB)
        for index in sorted(first_read):
            ckb.recent_counts(GROUPS[index], 6.0, 3.0)
        for operation in operations:
            if operation[0] == "link":
                ckb.link_tweet(operation[1], user=0, timestamp=operation[2])
            elif operation[0] == "bulk":
                ckb.bulk_link((e, 0, t, -1) for e, t in operation[1])
            elif operation[0] == "read":
                ckb.recent_counts(GROUPS[operation[1]], 6.0, 3.0)
            else:
                ckb = restore(KB, snapshot(ckb), num_nodes=1)
            assert_timelines_are_merges(ckb)
        for group in GROUPS:
            ckb.recent_counts(group, 6.0, 3.0)
        assert set(ckb._timelines) == set(GROUPS)
        assert_timelines_are_merges(ckb)

    def test_ties_fall_in_member_then_arrival_order(self):
        ckb = ComplementedKnowledgebase(KB)
        group = (0, 1, 2)
        ckb.link_tweet(2, user=1, timestamp=5.0)
        ckb.link_tweet(0, user=2, timestamp=5)
        assert ckb.recent_counts(group, 5.0, 1.0).tolist() == [1, 0, 1]
        ckb.link_tweet(1, user=3, timestamp=5.0)  # between members 0 and 2
        ckb.link_tweet(0, user=4, timestamp=5.0)  # after member 0's earlier one
        times, owners = ckb._timelines[group]
        assert (list(times), list(owners)) == ([5.0] * 4, [0, 0, 1, 2])
        assert_timelines_are_merges(ckb)

    def test_thousands_of_ties_keep_member_order(self):
        """A sort that is stable only on short runs passes a handful of
        ties; 2,000 links on 50 distinct times do not."""
        ckb = ComplementedKnowledgebase(KB)
        group = tuple(range(40))
        ckb.bulk_link(
            (e, tick, float(tick * 7 % 50), -1) for tick in range(50) for e in group
        )
        ckb.recent_counts(group, 30.0, 10.0)
        assert len(ckb._timelines[group][0]) == 2000
        assert_timelines_are_merges(ckb)

    def test_wide_and_empty_groups(self):
        ckb = ComplementedKnowledgebase(KB)
        for entity_id in (WIDE - 1, 0, 256):
            ckb.link_tweet(entity_id, user=1, timestamp=2.0)
        wide = tuple(range(WIDE))
        assert ckb.recent_counts(wide, 2.0, 1.0).sum() == 3
        assert ckb.recent_counts((), 2.0, 1.0).tolist() == []
        assert ckb._timelines[wide][1].typecode == "H"
        assert list(ckb._timelines[wide][1]) == [0, 256, WIDE - 1]
        assert list(ckb._timelines[()][0]) == []
        assert_timelines_are_merges(ckb)


class TestConcurrentFirstTouch:
    def test_eight_threads_merge_one_group_then_a_write_lands(self):
        """``repro serve`` handler threads may all meet a cluster first at
        once: each merges, one timeline wins, and that one must be the
        timeline ``link_tweet`` keeps."""
        ckb = ComplementedKnowledgebase(KB)
        group = tuple(range(40))
        for entity_id in group:
            for tick in range(50):
                ckb.link_tweet(entity_id, user=tick, timestamp=float(tick * 7 % 50))
        expected = [ckb.recent_count(e, 30.0, 10.0) for e in group]
        barrier = threading.Barrier(8)
        answers = []

        def first_touch() -> None:
            barrier.wait()
            answers.append(ckb.recent_counts(group, 30.0, 10.0).tolist())

        threads = [threading.Thread(target=first_touch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers == [expected] * 8
        ckb.link_tweet(3, user=0, timestamp=25.0)
        expected[3] += 1
        assert ckb.recent_counts(group, 30.0, 10.0).tolist() == expected

