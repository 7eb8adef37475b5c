"""Dependency-aware score caches for the linking hot path.

Three epoch-keyed memo tables plus one incremental recency evaluator,
bundled as :class:`ScoreCaches` and wired into
:class:`~repro.core.linker.SocialTemporalLinker` when
``config.score_caching`` is on:

* **candidates** — surface form → candidate tuple, valid while the
  knowledgebase epoch stands (new surface forms / entities bump it);
* **popularity** — candidate tuple → Eq. 2 shares, valid while the link
  epoch stands (``link_tweet`` / ``prune_before`` bump it);
* **interest** — ``(user, candidates)`` → Eq. 8 shares, valid while both
  the graph epoch and the link epoch stand.  The memo wraps the linker's
  own ``_interest_scores`` computation, so the PR-2 influential-user LRU
  semantics (including its documented staleness under direct KB
  mutation) are preserved exactly — a hit returns precisely what the
  uncached path would have recomputed;
* **recency** — a :class:`~repro.cache.burst.BurstTracker` plus a
  per-cluster memo of propagated Eq. 11 fixed points keyed on the
  cluster's burst-gated input vector.  The fixed point is a
  deterministic function of that vector, so a cluster is recomputed
  exactly when its raw burst input actually changed — the sharpest
  possible dirty-cluster restart — and entries survive tracker
  rebuilds and replay restarts (the same vector always maps to the
  same result).

Everything here is conservative: an epoch bump may invalidate entries
whose values would not have changed, never the reverse — which is why
the cached path stays bit-identical to the uncached oracle (the property
suite in ``tests/test_cache_properties.py`` replays randomized
link/mutate/advance/feedback interleavings against both).

Hit/miss/eviction counters go to :data:`repro.obs.metrics.METRICS`
(prefix ``score_cache.``).  A hit or a miss depends on what ran before,
not on the request alone, but a seeded run from a fresh linker repeats
them exactly.  ``METRICS.hit_rates()`` derives the rates that
``repro bench`` publishes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import LinkerConfig
    from repro.core.recency import RecencyPropagationNetwork
    from repro.graph.digraph import DiGraph
    from repro.kb.complemented import ComplementedKnowledgebase

from repro.cache.burst import BurstTracker

K = TypeVar("K")
V = TypeVar("V")

#: Capacity of each epoch-keyed score cache (candidates, popularity,
#: interest, recency clusters), LRU-evicted independently.
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


class IncrementalRecency:
    """Eq. 9/11 recency served from the tracker + per-cluster cache.

    Mirrors :func:`~repro.core.recency.sliding_window_recency` and
    :func:`~repro.core.recency.propagated_recency` operation for
    operation (same gating expressions, same summation order over the
    candidate sequence, same per-component fixed-point loop via
    :meth:`RecencyPropagationNetwork.propagate_component`), so its output
    is bit-identical to the oracle at every query time.
    """

    def __init__(
        self,
        ckb: "ComplementedKnowledgebase",
        network: Optional["RecencyPropagationNetwork"],
        window: float,
        burst_threshold: int,
        capacity: int = SCORE_CACHE_SIZE,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._tracker = BurstTracker(ckb, window, burst_threshold)
        self._network = network
        self._threshold = burst_threshold
        self._capacity = capacity
        # (component index, gated input vector) -> propagated fixed point.
        # The vector is the complete input of propagate_component, so an
        # entry never goes stale — LRU-bounded, never invalidated.
        self._memo: "OrderedDict[Tuple[int, Tuple[float, ...]], Dict[int, float]]" = (
            OrderedDict()
        )

    @property
    def tracker(self) -> BurstTracker:
        return self._tracker

    def pre_advance(self, now: float) -> None:
        """Amortize window maintenance off the per-mention path.

        Safe only in the forward direction: a regressing ``now`` is
        ignored here and handled (as a rebuild) by the next query.  The
        stream ingestor calls this with each release batch's earliest
        timestamp, which by watermark ordering is ≤ every query time in
        the batch.
        """
        if not self._tracker.needs_rebuild and now > self._tracker.now:
            self._tracker.advance(now)
            self._tracker.consume_dirty()

    def scores(self, candidates: Sequence[int], now: float) -> Dict[int, float]:
        """Normalized recency shares for the candidate set at ``now``."""
        self._tracker.advance(now)
        # Value-keyed memoization needs no dirty-driven invalidation;
        # drain the set so it stays small between consumers.
        self._tracker.consume_dirty()
        if self._network is None:
            return self._sliding(candidates)
        return self._propagated(candidates)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _sliding(self, candidates: Sequence[int]) -> Dict[int, float]:
        # same arithmetic as sliding_window_recency, counts via tracker
        recent = {
            entity_id: self._tracker.count(entity_id) for entity_id in candidates
        }
        total = sum(recent.values())
        if total == 0:
            return {entity_id: 0.0 for entity_id in candidates}
        return {
            entity_id: (count / total if count >= self._threshold else 0.0)
            for entity_id, count in recent.items()
        }

    def _propagated(self, candidates: Sequence[int]) -> Dict[int, float]:
        network = self._network
        values: Dict[int, float] = {}
        for entity_id in candidates:
            index = network.component_index(entity_id)
            if index is None:
                # isolated entity: propagation is the identity on it
                values[entity_id] = self._tracker.gated(entity_id)
                continue
            members = network.component_members(index)
            vector = tuple(self._tracker.gated(member) for member in members)
            key = (index, vector)
            component = self._memo.get(key)
            if component is None:
                METRICS.incr("score_cache.recency.miss")
                component = network.propagate_component(
                    index, dict(zip(members, vector))
                )
                self._memo[key] = component
                while len(self._memo) > self._capacity:
                    self._memo.popitem(last=False)
                    METRICS.incr("score_cache.recency.evictions")
            else:
                METRICS.incr("score_cache.recency.hit")
                self._memo.move_to_end(key)
            values[entity_id] = component.get(entity_id, 0.0)
        total = sum(values.values())
        if total == 0.0:
            return {entity_id: 0.0 for entity_id in candidates}
        return {entity_id: value / total for entity_id, value in values.items()}


class ScoreCaches:
    """The linker's cache bundle: three memo tables + incremental recency.

    Epoch ownership (see :mod:`repro.cache.epochs`):

    ==============  =====================================  ==============
    cache           valid while                            bumped by
    ==============  =====================================  ==============
    candidates      ``kb.epoch``                           add_entity, add_surface_form, add_hyperlink, set_description
    popularity      ``ckb.link_epoch``                     link_tweet, prune_before
    interest        ``graph.epoch`` **and** ``link_epoch``  edge edits, link_tweet, prune_before
    recency         gated input vector (value key)         link arrivals / window expiry
    ==============  =====================================  ==============
    """

    def __init__(
        self,
        ckb: "ComplementedKnowledgebase",
        graph: "DiGraph",
        network: Optional["RecencyPropagationNetwork"],
        config: "LinkerConfig",
    ) -> None:
        self._ckb = ckb
        self._graph = graph
        self.candidates = EpochKeyedCache("score_cache.candidates", SCORE_CACHE_SIZE)
        self.popularity = EpochKeyedCache("score_cache.popularity", SCORE_CACHE_SIZE)
        self.interest = EpochKeyedCache("score_cache.interest", SCORE_CACHE_SIZE)
        self.recency = IncrementalRecency(
            ckb, network, config.window, config.burst_threshold
        )

    def candidate_epochs(self) -> Tuple[int, ...]:
        return (self._ckb.kb.epoch.value,)

    def popularity_epochs(self) -> Tuple[int, ...]:
        return (self._ckb.link_epoch.value,)

    def interest_epochs(self) -> Tuple[int, ...]:
        return (self._graph.epoch.value, self._ckb.link_epoch.value)

    def pre_advance(self, now: float) -> None:
        """Forward the stream's low-water mark to the recency tracker."""
        self.recency.pre_advance(now)

    def clear(self) -> None:
        """Drop every memo entry (epoch bookkeeping makes this optional)."""
        self.candidates.clear()
        self.popularity.clear()
        self.interest.clear()


def hit_rate_names() -> Set[str]:
    """The ``METRICS`` counter prefixes this layer reports hit rates under."""
    return {
        "score_cache.candidates",
        "score_cache.popularity",
        "score_cache.interest",
        "score_cache.recency",
    }
