"""The complemented knowledgebase (Definition 5).

Offline knowledge acquisition (Sec. 3.2.1) links a historical tweet corpus
to the KB with a batch linker and stores, per entity ``e``:

* :math:`D_e` — the linked tweets, as three columns in link order: authors,
  timestamps and tweet ids,
* :math:`U_e` — the community, i.e. the authors of those tweets,
* per-user tweet counts :math:`|D_e^u|`, and :math:`U_e` ordered by
  ``(-|D_e^u|, u)`` (both consumed by influence estimation),
* a time-ordered timestamp list (consumed by the sliding recency window);

and per recency cluster one timeline, merged on first read from its
members' link-time columns: their times as C doubles, and whose link
each one is.

A labelled corpus (or a checkpoint) loads in one :meth:`bulk_link` pass;
online inference appends confirmed links one at a time (Sec. 3.2.2
"update existing knowledge") through :meth:`link_tweet`, which only
touches per-entity structures — no global recomputation.  Those are the
only writers, and neither deletes: :math:`D_e` only grows.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from array import array
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.cache.epochs import Epoch
from repro.kb.knowledgebase import Knowledgebase

#: One link record: ``(entity_id, user, timestamp, tweet_id)``.
Link = Tuple[int, int, float, int]
#: :math:`D_e` of one entity: users, timestamps and tweet ids, in link order.
Columns = Tuple[array, array, array]


@dataclasses.dataclass(frozen=True)
class LinkedTweet:
    """One tweet linked to an entity: ``(d.u, d.t)`` of the paper."""

    user: int
    timestamp: float
    tweet_id: int = -1


def _new_columns() -> Columns:
    return array("q"), array("d"), array("q")


def _require_finite(timestamp: float) -> None:
    # NaN compares False against everything, so a sorted insert would park
    # it at an arbitrary position and silently break the sorted invariant
    # every recency query depends on.
    if not math.isfinite(timestamp):
        raise ValueError(f"link timestamp must be finite, got {timestamp!r}")


class ComplementedKnowledgebase:
    """A :class:`Knowledgebase` plus per-entity tweet/community knowledge."""

    def __init__(self, kb: Knowledgebase) -> None:
        self._kb = kb
        self._columns: Dict[int, Columns] = {}
        self._timestamps: Dict[int, List[float]] = {}
        self._user_counts: Dict[int, Counter] = {}
        # entity -> U_e ordered by (-|D_e^u|, u)
        self._by_count: Dict[int, List[int]] = {}
        # group -> (the times of all its members' links as array('d'), which
        # member each one links), in the order of a stable merge of the
        # members' sorted _timestamps: by time, then member, then arrival
        self._timelines: Dict[Tuple[int, ...], Tuple[array, array]] = {}
        # entity -> [(times, owners, its position) of each group it is in]
        self._timelines_of: Dict[int, List[Tuple[array, array, int]]] = {}
        self._total_links = 0
        self._versions: Dict[int, int] = {}
        #: Versions the link store for ``repro.cache``: bumped by every
        #: mutator (tests/test_invariants.py), so memoized popularity/
        #: interest shares invalidate structurally when links arrive.
        self.link_epoch = Epoch()

    @property
    def kb(self) -> Knowledgebase:
        """The underlying knowledgebase."""
        return self._kb

    @property
    def total_links(self) -> int:
        """Total number of (tweet, entity) links stored."""
        return self._total_links

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def link_tweet(
        self, entity_id: int, user: int, timestamp: float, tweet_id: int = -1
    ) -> None:
        """Attach one tweet to an entity (incremental, O(log |D_e|)).

        Timestamps are kept sorted so the recency window can be evaluated
        with two bisections even when links arrive out of order (backfills
        during offline complementation).  A value a column cannot hold
        raises with nothing written, as in :meth:`bulk_link`.
        """
        _require_finite(timestamp)
        self._kb.entity(entity_id)  # raises KeyError on bad id
        columns = self._columns.get(entity_id)
        if columns is None:
            columns = self._columns[entity_id] = _new_columns()
        users, times, tweet_ids = columns
        try:
            users.append(user)
            times.append(timestamp)
            tweet_ids.append(tweet_id)
        except (OverflowError, TypeError):
            # undo the appends that went in
            del users[len(tweet_ids) :], times[len(tweet_ids) :]
            if not tweet_ids:
                del self._columns[entity_id]
            raise
        bisect.insort(self._timestamps.setdefault(entity_id, []), timestamp)
        for merged, owners, column in self._timelines_of.get(entity_id, ()):
            # after the equal times of members up to this one, as a merge puts it
            ties = bisect.bisect_left(merged, timestamp)
            position = bisect.bisect_right(
                owners, column, ties, bisect.bisect_right(merged, timestamp, ties)
            )
            merged.insert(position, timestamp)
            owners.insert(position, column)
        counts = self._user_counts.get(entity_id)
        if counts is None:
            counts = self._user_counts[entity_id] = Counter()
            self._by_count[entity_id] = []
        order = self._by_count[entity_id]

        def key(u: int) -> Tuple[int, int]:
            return -counts[u], u

        if user in counts:
            del order[bisect.bisect_left(order, key(user), key=key)]
        counts[user] += 1
        bisect.insort(order, user, key=key)
        self._total_links += 1
        self._versions[entity_id] = self._versions.get(entity_id, 0) + 1
        self.link_epoch.bump()

    def bulk_link(self, links: Iterable[Link]) -> None:
        """Link ``(entity_id, user, timestamp, tweet_id)`` records in order.

        The resulting state equals one :meth:`link_tweet` per record, but
        each entity is written once: its columns extended, its timestamps
        sorted and its user counts updated for all of its records.  Every
        record is checked first, so a bad one raises :meth:`link_tweet`'s
        ``KeyError`` / ``ValueError``, naming it, and nothing is written.
        """
        grouped: Dict[int, Tuple[List[int], List[float], array]] = {}
        for position, (entity_id, user, timestamp, tweet_id) in enumerate(links):
            added = grouped.get(entity_id)
            try:
                if added is None:
                    self._kb.entity(entity_id)
                    added = grouped[entity_id] = [], [], array("q")
                _require_finite(timestamp)
            except (KeyError, ValueError) as exc:
                record = (entity_id, user, timestamp, tweet_id)
                raise type(exc)(f"link {position} {record}: {exc.args[0]}") from None
            users, times, tweet_ids = added
            users.append(user)
            times.append(timestamp)
            tweet_ids.append(tweet_id)
        # converted before the first write, so a value no column takes
        # fails the load with nothing written either
        loaded = {
            entity_id: (array("q", users), array("d", times), tweet_ids)
            for entity_id, (users, times, tweet_ids) in grouped.items()
        }
        for entity_id, (users, times, _) in grouped.items():
            columns = self._columns.setdefault(entity_id, loaded[entity_id])
            if columns is not loaded[entity_id]:
                for column, more in zip(columns, loaded[entity_id]):
                    column.extend(more)
            # the records' own objects, as link_tweet keeps them: communities
            # keyed by the same user ints intersect by identity in the
            # influence walk, where ints made from the column compare by value
            timestamps = self._timestamps.setdefault(entity_id, times)
            if timestamps is not times:
                timestamps += times
            timestamps.sort()  # stable: equal times keep arrival order, as insort
            counts = self._user_counts.setdefault(entity_id, Counter())
            counts.update(users)
            # by user, then stably by count: both sorts keyed in C
            self._by_count[entity_id] = sorted(
                sorted(counts), key=counts.__getitem__, reverse=True
            )
            self._versions[entity_id] = self._versions.get(entity_id, 0) + len(users)
            self._total_links += len(users)
        # the touched groups re-merge on their next recent_counts
        for group in [g for g in self._timelines if not grouped.keys().isdisjoint(g)]:
            merged = self._timelines.pop(group)[0]
            for entity_id in group:
                self._timelines_of[entity_id] = [
                    entry
                    for entry in self._timelines_of[entity_id]
                    if entry[0] is not merged
                ]
        self.link_epoch.bump()

    # ------------------------------------------------------------------ #
    # paper notation accessors
    # ------------------------------------------------------------------ #
    def link_columns(self, entity_id: int) -> Columns:
        """:math:`D_e` as its users, timestamps and tweet ids columns, in
        link order — the stored arrays, for reading only."""
        columns = self._columns.get(entity_id)
        return _new_columns() if columns is None else columns

    def tweets_of(self, entity_id: int) -> List[LinkedTweet]:
        """:math:`D_e` — tweets linked to the entity, one record each."""
        return list(itertools.starmap(LinkedTweet, zip(*self.link_columns(entity_id))))

    def count(self, entity_id: int) -> int:
        """:math:`count(e) = |D_e|` of Eq. 2."""
        columns = self._columns.get(entity_id)
        return 0 if columns is None else len(columns[0])

    def community(self, entity_id: int) -> Set[int]:
        """:math:`U_e` — users tweeting about the entity (Definition 6)."""
        return set(self._user_counts.get(entity_id, ()))

    def version(self, entity_id: int) -> int:
        """Links written to :math:`D_e` so far: what state derived from
        :math:`D_e` is stamped with.  Bumped *after* the data changed, so a
        racing reader can only stamp itself too old."""
        return self._versions.get(entity_id, 0)

    def user_count(self, entity_id: int, user: int) -> int:
        """:math:`|D_e^u|` — tweets about ``entity`` authored by ``user``."""
        counts = self._user_counts.get(entity_id)
        return counts.get(user, 0) if counts else 0

    def user_counts(self, entity_id: int) -> Counter:
        """All :math:`|D_e^u|` for an entity as a Counter over users."""
        counts = self._user_counts.get(entity_id)
        return Counter() if counts is None else counts

    def users_by_count(self, entity_id: int) -> List[int]:
        """:math:`U_e` ordered by ``(-|D_e^u|, u)`` — the stored list, for
        reading only.  :meth:`link_tweet` moves its author with one bisect
        and one insort; :meth:`bulk_link` sorts each touched entity once."""
        return self._by_count.get(entity_id, [])

    def recent_count(self, entity_id: int, now: float, window: float) -> int:
        """:math:`|D_e^\\tau|` — linked tweets with ``t >= now - window``.

        Tweets timestamped *after* ``now`` are excluded: during replay of a
        historical stream, the future must not leak into recency.
        """
        timestamps = self._timestamps.get(entity_id)
        if not timestamps:
            return 0
        low = bisect.bisect_left(timestamps, now - window)
        high = bisect.bisect_right(timestamps, now)
        return high - low

    def recent_counts(
        self, entity_ids: Tuple[int, ...], now: float, window: float
    ) -> np.ndarray:
        """:meth:`recent_count` of each entity of a group, in order: two
        bisections on the group's merged timeline and one ``bincount`` over
        the window.  The timeline is merged on the group's first read, kept
        by :meth:`link_tweet` and dropped by :meth:`bulk_link`, so there is
        nothing for a caller to invalidate."""
        times, columns = self._timelines.get(entity_ids) or self._merge(entity_ids)
        low = bisect.bisect_left(times, now - window)
        high = bisect.bisect_right(times, now)
        in_window = np.frombuffer(
            columns, columns.typecode, high - low, low * columns.itemsize
        )
        return np.bincount(in_window, minlength=len(entity_ids))

    def _merge(self, entity_ids: Tuple[int, ...]) -> Tuple[array, array]:
        per_entity = [self.link_columns(entity_id)[1] for entity_id in entity_ids]
        times = np.concatenate(per_entity) if per_entity else np.empty(0)
        # stable: equal times keep member order, then link (arrival) order
        order = np.argsort(times, kind="stable")
        width = np.min_scalar_type(len(entity_ids))
        owners = np.repeat(
            np.arange(len(entity_ids), dtype=width), [len(t) for t in per_entity]
        )[order]
        times = times[order]
        # filled from the sorted buffers, as bytes: no bytes copy beside them
        built = array("d"), array(width.char)
        built[0].frombytes(times.view(np.uint8))
        built[1].frombytes(owners.view(np.uint8))
        # racing first reads (serve handler threads) each merge; one timeline
        # wins and only that one is registered with link_tweet
        timeline = self._timelines.setdefault(entity_ids, built)
        if timeline is built:
            for column, entity_id in enumerate(entity_ids):
                self._timelines_of.setdefault(entity_id, []).append((*built, column))
        return timeline

    def linked_entities(self) -> List[int]:
        """Entity ids with at least one linked tweet."""
        return list(self._columns)

    def iter_links(self) -> Iterator[Link]:
        """Every stored ``(entity_id, user, timestamp, tweet_id)`` record,
        grouped by entity in insertion order — the serialization feed for
        :mod:`repro.kb.checkpoint` and what :meth:`bulk_link` reloads."""
        for entity_id, (users, times, tweet_ids) in self._columns.items():
            yield from zip(itertools.repeat(entity_id), users, times, tweet_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComplementedKnowledgebase(entities={self._kb.num_entities}, "
            f"links={self._total_links})"
        )
