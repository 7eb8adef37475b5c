"""Epoch-keyed score memos for the linking hot path.

Three memo tables, bundled as :class:`ScoreCaches` and wired into
:class:`~repro.core.linker.SocialTemporalLinker` when
``config.score_caching`` is on:

* **candidates** — surface form → candidate tuple, valid while the
  knowledgebase epoch stands (new surface forms / entities bump it);
* **popularity** — candidate tuple → Eq. 2 shares, valid while the link
  epoch stands (``link_tweet`` / ``bulk_link`` bump it);
* **interest** — ``(user, candidates)`` → Eq. 8 shares, valid while the
  link epoch stands (the follow graph is immutable).  The memo wraps the linker's
  own ``_interest_scores`` computation, so the PR-2 influential-user LRU
  semantics (including its documented staleness under direct KB
  mutation) are preserved exactly — a hit returns precisely what the
  uncached path would have recomputed.

Recency is not memoized: it depends on ``now``, and since the Eq. 11
operator is precomputed per cluster (:mod:`repro.core.recency`) there is
no fixed point left to save — cached and uncached linkers call the same
:func:`~repro.core.recency.propagated_recency`.

Everything here is conservative: an epoch bump may invalidate entries
whose values would not have changed, never the reverse — which is why
the cached path stays bit-identical to the uncached one (the
differential harness, ``tests/test_differential.py``, replays random
link/write/feedback scripts with caching off and on).

Hit/miss/eviction counters go to :data:`repro.obs.metrics.METRICS`
(prefix ``score_cache.``).  A hit or a miss depends on what ran before,
not on the request alone, but a seeded run from a fresh linker repeats
them exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional, Tuple, TypeVar

from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kb.complemented import ComplementedKnowledgebase

K = TypeVar("K")
V = TypeVar("V")

#: Capacity of each epoch-keyed score cache (candidates, popularity,
#: interest), LRU-evicted independently.
SCORE_CACHE_SIZE = 4096


class EpochKeyedCache:
    """LRU memo table whose entries carry the epochs they were built under.

    ``get`` returns a value only when the stored epoch tuple equals the
    caller's current one — a mismatch is a miss, and the stale entry is
    overwritten by the following ``put``.  Capacity-bounded with LRU
    eviction so a long stream of distinct keys cannot grow it without
    limit (same policy as the PR-2 influential cache).
    """

    __slots__ = ("_name", "_capacity", "_entries")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._name = name
        self._capacity = capacity
        self._entries: "OrderedDict[object, Tuple[Tuple[int, ...], object]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K, epochs: Tuple[int, ...]) -> Optional[V]:
        entry = self._entries.get(key)
        if entry is not None and entry[0] == epochs:
            self._entries.move_to_end(key)
            METRICS.incr(self._name + ".hit")
            return entry[1]
        METRICS.incr(self._name + ".miss")
        return None

    def put(self, key: K, epochs: Tuple[int, ...], value: V) -> None:
        self._entries[key] = (epochs, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            METRICS.incr(self._name + ".evictions")

    def lookup(
        self, key: K, epochs: Tuple[int, ...], compute: Callable[[], V]
    ) -> V:
        """Memoized ``compute()`` under the given key and epochs."""
        value = self.get(key, epochs)
        if value is None:
            value = compute()
            self.put(key, epochs, value)
        return value

    def clear(self) -> None:
        self._entries.clear()


class ScoreCaches:
    """The linker's cache bundle: three epoch-keyed memo tables.

    Epoch ownership (see :mod:`repro.cache.epochs`):

    ==============  =====================================  ==============
    cache           valid while                            bumped by
    ==============  =====================================  ==============
    candidates      ``kb.epoch``                           add_entity, add_surface_form, add_hyperlink
    popularity      ``ckb.link_epoch``                     link_tweet, bulk_link
    interest        ``ckb.link_epoch``                     link_tweet, bulk_link
    ==============  =====================================  ==============
    """

    def __init__(self, ckb: "ComplementedKnowledgebase") -> None:
        self._ckb = ckb
        self.candidates = EpochKeyedCache("score_cache.candidates", SCORE_CACHE_SIZE)
        self.popularity = EpochKeyedCache("score_cache.popularity", SCORE_CACHE_SIZE)
        self.interest = EpochKeyedCache("score_cache.interest", SCORE_CACHE_SIZE)

    def candidate_epochs(self) -> Tuple[int, ...]:
        return (self._ckb.kb.epoch.value,)

    def popularity_epochs(self) -> Tuple[int, ...]:
        return (self._ckb.link_epoch.value,)

    def interest_epochs(self) -> Tuple[int, ...]:
        return (self._ckb.link_epoch.value,)

    def pre_advance(self, now: float) -> None:
        """No-op: nothing here tracks the stream clock any more.  Kept only
        because ``perfbench/inprocess.py`` passes it as the ingestor's
        ``advance_hook``; delete at the next benchmark re-freeze."""

    def clear(self) -> None:
        """Drop every memo entry (epoch bookkeeping makes this optional)."""
        self.candidates.clear()
        self.popularity.clear()
        self.interest.clear()
