"""Per-layer measurement from outside the program (traced runs only).

Nothing under ``src/`` is instrumented by this benchmark.  The linker's
stages are measured by *staged replay*: each mention is pushed through
the public stage functions with the inputs ``link()`` would pass, each
call under its own span.  Reachability is measured by a timing proxy
passed to the linker as its ``reachability=`` provider.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Sequence

from repro.core.influence import top_influential_users
from repro.core.interest import normalized_interest
from repro.core.linker import LinkResult, SocialTemporalLinker
from repro.core.popularity import popularity_scores
from repro.core.recency import propagated_recency
from repro.core.scoring import combine_scores

from perfbench.trace import NAME, Tracer, mean, percentile, self_times_ns

#: Span name of each stage, in the order ``link()`` runs them.
STAGES = (
    "link.candidates",
    "link.interest",
    "link.recency",
    "link.popularity",
    "link.combine",
)


class StagedLinker:
    """``link()`` taken apart into its five stages, one span each.

    Mirrors what the linker does between the stage functions — the
    LRU of influential-user rankings keyed on ``(entity, candidate set)``
    and invalidated per entity by :meth:`confirm` — so stage times add
    up to a real ``link()``, and decisions are identical to it.
    """

    def __init__(
        self,
        linker: SocialTemporalLinker,
        network: object,
        tracer: Tracer,
    ) -> None:
        self._linker = linker
        self._network = network
        #: Where the stage spans go; swap it to discard a warm-up's spans.
        self.tracer = tracer
        self._rankings: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._versions: Dict[int, int] = {}

    def link(self, surface: str, user: int, now: float) -> LinkResult:
        """Link one mention stage by stage."""
        linker, span = self._linker, self.tracer.span
        ckb, config = linker.ckb, linker.config
        with span("link.staged"):
            with span("link.candidates"):
                candidates = linker.candidate_generator.candidates(surface)
            if not candidates:
                return LinkResult(surface, user, now, ranked=())
            with span("link.interest"):
                key_suffix = tuple(sorted(candidates))
                rankings = {
                    entity: self._ranking(entity, key_suffix, candidates)
                    for entity in candidates
                }
                interest = normalized_interest(
                    linker.reachability_provider, user, rankings
                )
            with span("link.recency"):
                recency = propagated_recency(
                    ckb,
                    self._network,
                    candidates,
                    now,
                    config.window,
                    config.burst_threshold,
                )
            with span("link.popularity"):
                popularity = popularity_scores(ckb, candidates)
            with span("link.combine"):
                ranked = combine_scores(
                    candidates, interest, recency, popularity, config
                )
            return LinkResult(surface, user, now, ranked=tuple(ranked))

    def _ranking(
        self, entity: int, key_suffix: tuple, candidates: Sequence[int]
    ) -> List[int]:
        version = self._versions.get(entity, 0)
        key = (entity, key_suffix)
        cached = self._rankings.get(key)
        if cached is not None and cached[0] == version:
            self._rankings.move_to_end(key)
            return cached[1]
        config = self._linker.config
        with self.tracer.span("influence.top_users"):
            ranking = top_influential_users(
                self._linker.ckb,
                entity,
                candidates,
                k=config.influential_users,
                method=config.influence_method,
            )
        self._rankings[key] = (version, ranking)
        self._rankings.move_to_end(key)
        while len(self._rankings) > config.influential_cache_size:
            self._rankings.popitem(last=False)
        return ranking

    def confirm(self, entity: int) -> None:
        """Mirror ``confirm_link``'s invalidation of the entity's rankings."""
        self._versions[entity] = self._versions.get(entity, 0) + 1


class TimingProvider:
    """``ReachabilityProvider`` proxy timing every query it forwards."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls_ns: List[int] = []

    def reachability(self, source: int, target: int) -> float:
        started = time.perf_counter_ns()
        value = self._inner.reachability(source, target)
        self.calls_ns.append(time.perf_counter_ns() - started)
        return value


def stage_metrics(tracer: Tracer, mentions: int) -> Dict[str, float]:
    """``link.*`` and ``influence.*`` metrics from a staged replay's spans.

    Stage times are inclusive: ``link.interest`` contains the ranking
    rebuilds that ``influence.*`` breaks out, so the five stage means
    sum to the staged whole.
    """
    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[f"{stage}_us_mean"] = sum(tracer.durations_us(stage)) / mentions
    for stage in ("link.interest", "link.recency"):
        metrics[f"{stage}_us_p95"] = percentile(
            tracer.durations_us(stage) or [0.0], 0.95
        )
    influence = tracer.durations_us("influence.top_users")
    metrics["influence.us_mean"] = mean(influence)
    metrics["influence.calls_per_mention"] = len(influence) / mentions
    return metrics


def staged_sum_us(metrics: Dict[str, float]) -> float:
    """Mean staged microseconds per mention: the five stages summed."""
    return sum(metrics[f"{stage}_us_mean"] for stage in STAGES)


def self_time_table(tracer: Tracer) -> Dict[str, float]:
    """Total self milliseconds per span name — where the traced time went."""
    totals: Dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times_ns(tracer.spans)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own / 1e6
    return totals
