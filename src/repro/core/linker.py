"""The social-temporal entity linker — online inference (Sec. 3.2.2).

Given a mention, its author, and the current time, the linker

1. generates the candidate set :math:`E_m` (exact + fuzzy surface lookup);
2. scores every candidate by Eq. 1 combining user interest (weighted
   reachability to influential community members), entity recency
   (sliding window, optionally cluster-propagated) and entity popularity;
3. returns the ranked candidates, the top-k, and the Appendix-D abstention
   signal (no candidate scoring above the ``β + γ`` no-interest bound).

Each mention is linked independently — no intra- or inter-tweet joint
inference — which is what makes the framework embarrassingly parallel and
fast enough for streaming use.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.scores import ScoreCaches
from repro.config import DEFAULT_CONFIG, LinkerConfig
from repro.core.candidates import CandidateGenerator
from repro.core.influence import influential_user_sets
from repro.core.interest import ReachabilityProvider, normalized_interest
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    IndexUnavailableError,
    UnknownUserError,
)
from repro.log import get_logger
from repro.obs.metrics import METRICS, SCORE_BOUNDARIES
from repro.obs.stage import stage
from repro.resilience.breaker import CircuitBreaker
from repro.core.popularity import popularity_scores
from repro.core.recency import (
    RecencyPropagationNetwork,
    propagated_recency,
    sliding_window_recency,
)
from repro.core.scoring import ScoredCandidate, combine_scores
from repro.graph.digraph import DiGraph
from repro.graph.dispatch import build_reachability_index
from repro.kb.complemented import ComplementedKnowledgebase
from repro.stream.tweet import Tweet

_log = get_logger(__name__)


class _DeadlineGuard:
    """Reachability proxy that enforces a per-mention latency budget.

    The check runs *before* each provider call: once the budget is spent,
    the next query raises instead of queueing more slow work.  Partial
    interest results are discarded by the caller — a half-scored candidate
    set would not be comparable across candidates.
    """

    __slots__ = ("_inner", "_deadline", "_clock")

    def __init__(
        self,
        inner: ReachabilityProvider,
        deadline: float,
        clock: Callable[[], float],
    ) -> None:
        self._inner = inner
        self._deadline = deadline
        self._clock = clock

    def reachability(self, source: int, target: int) -> float:
        if self._clock() >= self._deadline:
            raise DeadlineExceededError("per-mention deadline budget exhausted")
        return self._inner.reachability(source, target)


class _BreakerGuard:
    """Reachability proxy routing every query through a circuit breaker."""

    __slots__ = ("_inner", "_breaker")

    def __init__(self, inner: ReachabilityProvider, breaker: CircuitBreaker) -> None:
        self._inner = inner
        self._breaker = breaker

    def reachability(self, source: int, target: int) -> float:
        return self._breaker.call(self._inner.reachability, source, target)


def record_degradation(root: object, reason: str) -> None:
    """Count one degraded link and stamp the typed trace event.

    Shared by the single-mention and micro-batch paths so both emit the
    same ``link.degraded`` event shape and reason-suffixed counters.
    ``root`` may be the no-op span; ``add_event`` is then free.
    """
    METRICS.incr("link.degraded")
    METRICS.incr("link.degraded." + reason)
    root.add_event("link.degraded", reason=reason)  # type: ignore[attr-defined]


def record_link_outcome(
    root: object, result: "LinkResult", config: LinkerConfig
) -> None:
    """Record the terminal metrics and root-span attributes for one link.

    ``abstained`` is Appendix D's rule as :meth:`LinkResult.top_k` applies
    it: no candidate survives the no-interest bound ``β + γ``.
    """
    best = result.best
    abstained = not result.top_k(1, threshold=config.no_interest_bound)
    if abstained:
        METRICS.incr("link.abstained")
    if best is not None:
        METRICS.observe(
            "link.best_score", round(best.score, 9), boundaries=SCORE_BOUNDARIES
        )
    if root.recording:  # type: ignore[attr-defined]
        root.set_attribute("degradation", result.degradation)  # type: ignore[attr-defined]
        root.set_attribute("abstained", abstained)  # type: ignore[attr-defined]
        if best is not None:
            root.set_attribute("entity", best.entity_id)  # type: ignore[attr-defined]
            root.set_attribute("score", round(best.score, 9))  # type: ignore[attr-defined]
            root.set_attribute("interest", round(best.interest, 9))  # type: ignore[attr-defined]
            root.set_attribute("recency", round(best.recency, 9))  # type: ignore[attr-defined]
            root.set_attribute("popularity", round(best.popularity, 9))  # type: ignore[attr-defined]


@dataclasses.dataclass(frozen=True)
class LinkResult:
    """Outcome of linking one mention."""

    surface: str
    user: int
    timestamp: float
    ranked: Tuple[ScoredCandidate, ...]
    #: ``None`` for a full-fidelity result; otherwise the reason scoring
    #: fell back to the no-interest bound ``β·S_r + γ·S_p`` (Appendix D):
    #: ``"index_unavailable"``, ``"deadline_exceeded"`` or ``"circuit_open"``.
    degradation: Optional[str] = None

    @property
    def degraded(self) -> bool:
        """Whether interest scoring was skipped due to a dependency fault."""
        return self.degradation is not None

    @property
    def candidates(self) -> Tuple[int, ...]:
        return tuple(c.entity_id for c in self.ranked)

    @property
    def best(self) -> Optional[ScoredCandidate]:
        """Highest-scoring candidate, or ``None`` when :math:`E_m` is empty."""
        return self.ranked[0] if self.ranked else None

    def top_k(self, k: int, threshold: Optional[float] = None) -> List[ScoredCandidate]:
        """Top-k candidates; a full-fidelity result drops scores ≤ ``threshold``.

        Passing ``config.no_interest_bound`` applies Appendix D: a candidate
        at or under ``β + γ`` with *measured* interest is a not-yet-known
        meaning and is not linked.  A degraded result never measured
        interest (every score is ≤ ``β + γ`` by construction), so it keeps
        its ``β·S_r + γ·S_p`` ranking whatever ``threshold`` is.
        """
        selected = self.ranked[:k]
        if threshold is not None and self.degradation is None:
            return [c for c in selected if c.score > threshold]
        return list(selected)


class SocialTemporalLinker:
    """Online entity linker over a complemented KB and a follow graph."""

    def __init__(
        self,
        ckb: ComplementedKnowledgebase,
        graph: DiGraph,
        config: LinkerConfig = DEFAULT_CONFIG,
        reachability: Optional[ReachabilityProvider] = None,
        propagation_network: Optional[RecencyPropagationNetwork] = None,
        candidate_generator: Optional[CandidateGenerator] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Wire the linker.

        Parameters
        ----------
        reachability:
            Pre-built index; when omitted, the linker builds the one
            :func:`~repro.graph.build_reachability_index` selects for
            ``graph`` and ``config``.
        propagation_network:
            Pre-built recency clusters; built from the KB on demand when
            ``config.recency_propagation`` is on.
        breaker:
            Optional circuit breaker guarding the reachability provider;
            when it is open, interest scoring is skipped immediately and
            results degrade to the no-interest bound.
        clock:
            Monotonic time source for ``config.deadline_ms`` enforcement;
            injectable for deterministic latency tests.
        """
        self._ckb = ckb
        self._graph = graph
        self._config = config
        if reachability is None:
            reachability = build_reachability_index(graph, config)
        self._reachability = reachability
        self._breaker = breaker
        self._clock = clock
        self._candidates = candidate_generator or CandidateGenerator(ckb.kb)
        if propagation_network is None and config.recency_propagation:
            propagation_network = RecencyPropagationNetwork(ckb.kb)
        self._propagation = propagation_network
        # candidate set -> (ckb.version of each member, its U*_e sets), never
        # edited once stored; LRU-bounded at config.influential_cache_size.
        self._influential_cache: "OrderedDict[Tuple[int, ...], tuple]" = OrderedDict()
        # Epoch-keyed candidate / popularity / interest memos (DESIGN.md
        # §10): off by default, and bit-identical to the uncached path.
        self._caches: Optional[ScoreCaches] = (
            ScoreCaches(ckb) if config.score_caching else None
        )

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> LinkerConfig:
        return self._config

    @property
    def ckb(self) -> ComplementedKnowledgebase:
        return self._ckb

    @property
    def graph(self) -> DiGraph:
        """The follow graph this linker scores against, as built."""
        return self._graph

    @property
    def reachability_provider(self) -> ReachabilityProvider:
        """The index answering Eq. 4 for this linker (the closure or the
        compact cover unless the caller passed another provider)."""
        return self._reachability

    @property
    def candidate_generator(self) -> CandidateGenerator:
        return self._candidates

    @property
    def caches(self) -> Optional[ScoreCaches]:
        """The score-cache bundle, or ``None`` unless ``score_caching``."""
        return self._caches

    # ------------------------------------------------------------------ #
    # online inference
    # ------------------------------------------------------------------ #
    def link(self, surface: str, user: int, now: float) -> LinkResult:
        """Link one mention issued by ``user`` at time ``now``.

        Interest scoring (the only feature touching the reachability
        index) runs under the configured deadline budget and circuit
        breaker.  If the index fails, times out, or the breaker is open,
        the mention is still ranked — by ``β·S_r + γ·S_p`` alone, the
        paper's own Appendix-D no-interest bound — and the result carries
        the degradation reason instead of an exception.  A ``user`` that is
        not a node of the follow graph raises :class:`UnknownUserError`, and
        a ``now`` that is not finite ``ValueError``, before any stage runs.
        """
        self._require_user(user)
        self._require_now(now)
        METRICS.incr("link.requests")
        with stage("link.request", surface=surface, user=user) as root:
            with stage("link.candidates"):
                candidates = self._candidate_set(surface)
            METRICS.observe("link.candidates_per_request", float(len(candidates)))
            if root.recording:
                root.set_attribute("candidates", len(candidates))
            if not candidates:
                METRICS.incr("link.no_candidates")
                result = LinkResult(
                    surface=surface, user=user, timestamp=now, ranked=()
                )
                record_link_outcome(root, result, self._config)
                return result
            interest, degradation = self._interest_or_degradation(user, candidates)
            if degradation is not None:
                _log.warning(
                    "degraded link for %r (user %d): %s", surface, user, degradation
                )
                record_degradation(root, degradation)
            with stage("link.recency"):
                recency = self._recency_scores(candidates, now)
            with stage("link.popularity"):
                popularity = self._popularity_scores(candidates)
            with stage("link.combine"):
                ranked = combine_scores(
                    candidates, interest, recency, popularity, self._config
                )
            result = LinkResult(
                surface=surface,
                user=user,
                timestamp=now,
                ranked=tuple(ranked),
                degradation=degradation,
            )
            record_link_outcome(root, result, self._config)
            return result

    def _require_user(self, user: int) -> None:
        """Refuse an author outside the graph before any scoring: a
        negative id would index another user's row from the end."""
        if not 0 <= user < self._graph.num_nodes:
            raise UnknownUserError(
                f"user {user} outside the follow graph [0, {self._graph.num_nodes})"
            )

    @staticmethod
    def _require_now(now: float) -> None:
        """Refuse a reading time that is not finite before any scoring: NaN
        bisects the recency timelines at arbitrary positions and ±inf
        empties every window, so the mention would rank on garbage."""
        if not math.isfinite(now):
            raise ValueError(f"link time must be finite, got {now!r}")

    def _interest_or_degradation(
        self, user: int, candidates: Tuple[int, ...]
    ) -> Tuple[Dict[int, float], Optional[str]]:
        """The ``link.interest`` stage under the deadline budget and
        breaker: ``(scores, None)``, or ``({}, reason)`` when the index
        failed, timed out, or the circuit is open."""
        try:
            with stage("link.interest"):
                provider = self._guarded_provider()
                return self._interest_scores(user, candidates, provider), None
        except DeadlineExceededError:
            return {}, "deadline_exceeded"
        except CircuitOpenError:
            return {}, "circuit_open"
        except IndexUnavailableError:
            return {}, "index_unavailable"

    def link_tweet(self, tweet: Tweet) -> List[LinkResult]:
        """Link every mention of a tweet independently, in mention order."""
        return [
            self.link(mention.surface, tweet.user, tweet.timestamp)
            for mention in tweet.mentions
        ]

    # ------------------------------------------------------------------ #
    # feedback / knowledge update (Sec. 3.2.2, Appendix D)
    # ------------------------------------------------------------------ #
    def confirm_link(
        self, entity_id: int, user: int, timestamp: float, tweet_id: int = -1
    ) -> None:
        """Record a user-confirmed link: append the tweet to :math:`D_e`.

        Everything derived from :math:`D_e` (``U_e``, counts, the recency
        window, cached :math:`U^*_e` rankings) follows from the write
        itself — the same as a direct ``ckb.link_tweet``.  A ``user`` that
        is not a node of the follow graph raises :class:`UnknownUserError`
        and writes nothing.
        """
        self._require_user(user)
        self._ckb.link_tweet(entity_id, user, timestamp, tweet_id)

    # ------------------------------------------------------------------ #
    # feature computation
    # ------------------------------------------------------------------ #
    def _guarded_provider(self) -> ReachabilityProvider:
        """The reachability provider wrapped in the configured guards.

        With no breaker and no deadline (the defaults) this returns the
        raw provider — the batch/eval path pays nothing for resilience.
        """
        provider: ReachabilityProvider = self._reachability
        if self._breaker is not None:
            provider = _BreakerGuard(provider, self._breaker)
        if self._config.deadline_ms is not None:
            deadline = self._clock() + self._config.deadline_ms / 1000.0
            provider = _DeadlineGuard(provider, deadline, self._clock)
        return provider

    def _candidate_set(self, surface: str) -> Tuple[int, ...]:
        """Candidate generation, memoized on the KB epoch when caching."""
        if self._caches is None:
            return self._candidates.candidates(surface)
        return self._caches.candidates.lookup(
            surface,
            self._caches.candidate_epochs(),
            lambda: self._candidates.candidates(surface),
        )

    def _popularity_scores(self, candidates: Sequence[int]) -> Dict[int, float]:
        """Eq. 2 popularity shares, memoized on the link epoch when caching."""
        if self._caches is None:
            return popularity_scores(self._ckb, candidates)
        return self._caches.popularity.lookup(
            tuple(candidates),
            self._caches.popularity_epochs(),
            lambda: popularity_scores(self._ckb, candidates),
        )

    def _interest_scores(
        self, user: int, candidates: Sequence[int], provider: ReachabilityProvider
    ) -> Dict[int, float]:
        """Eq. 8 interest shares, memoized on the link epoch.

        A memo hit skips the guarded provider entirely, so under injected
        reachability faults a cached mention cannot degrade — a documented
        deviation (the value returned is still exactly what full-fidelity
        recomputation would produce).  A degraded computation raises before
        the memo is written, so failures are never cached.
        """
        if self._caches is None:
            return self._compute_interest(user, candidates, provider)
        return self._caches.interest.lookup(
            (user, tuple(candidates)),
            self._caches.interest_epochs(),
            lambda: self._compute_interest(user, candidates, provider),
        )

    def _compute_interest(
        self, user: int, candidates: Sequence[int], provider: ReachabilityProvider
    ) -> Dict[int, float]:
        return normalized_interest(
            provider, user, self.influential_users(tuple(candidates))
        )

    def influential_users(self, candidates: Tuple[int, ...]) -> Dict[int, List[int]]:
        """:math:`U^*_e` for every ``e`` of a candidate set, as ``link()`` reads it.

        One entry per set, stamped with ``ckb.version`` of every member:
        Eq. 6 / 7 weigh a user over the whole set, so a write to any
        :math:`D_c` can reorder every sibling's ranking.  A stale entry is
        rescanned and the scan published as a new entry.  The stamp is taken
        before any count is read: a write racing a scan leaves an entry
        stamped older than its data (the next reader rescans), never newer.
        """
        stamp = tuple(self._ckb.version(c) for c in candidates)
        cached = self._influential_cache.get(candidates)
        if cached is not None and cached[0] == stamp:
            self._mark_recently_used(candidates)
            METRICS.incr("influential_cache.hit")
            return cached[1]
        attributes = {"candidates": len(candidates)}
        if cached is None:
            METRICS.incr("influential_cache.miss")
        else:
            METRICS.incr("influential_cache.refresh")
            attributes["authors"] = sum(stamp) - sum(cached[0])
        with stage("link.influence", **attributes):
            rankings = influential_user_sets(
                self._ckb,
                candidates,
                candidates,
                self._config.influential_users,
                self._config.influence_method,
            )
        self._influential_cache[candidates] = (stamp, rankings)
        self._mark_recently_used(candidates)
        while len(self._influential_cache) > self._config.influential_cache_size:
            self._influential_cache.popitem(last=False)
            METRICS.incr("influential_cache.evictions")
        return rankings

    def _mark_recently_used(self, key: Tuple[int, ...]) -> None:
        """LRU touch that survives a concurrent eviction.

        The serve handler threads share this cache without a lock; another
        thread's ``popitem`` can land between this thread's read (or
        insert) and its touch.  The ranking already in hand is still
        current, so the lost entry is only a future miss.
        """
        try:
            self._influential_cache.move_to_end(key)
        except KeyError:
            pass

    def _recency_scores(
        self, candidates: Sequence[int], now: float
    ) -> Dict[int, float]:
        if self._propagation is not None and self._config.recency_propagation:
            self._propagation = self._propagation.current()
            return propagated_recency(
                self._ckb,
                self._propagation,
                candidates,
                now,
                self._config.window,
                self._config.burst_threshold,
            )
        return sliding_window_recency(
            self._ckb,
            candidates,
            now,
            self._config.window,
            self._config.burst_threshold,
        )
