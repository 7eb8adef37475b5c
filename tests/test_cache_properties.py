"""Invalidation *exactness* of the epoch-keyed score memos.

That a cached linker decides like an uncached one is checked by the
differential harness (``tests/test_differential.py``).  Here METRICS
counter deltas pin which memo an epoch bump invalidates: precisely the
caches that depend on the mutated structure, and no others —
conservative invalidation is allowed by the design, but the concrete
mutators here have exact dependencies and the tests hold them to it.
"""

from __future__ import annotations

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.candidates import CandidateGenerator
from repro.core.linker import SocialTemporalLinker
from repro.core.recency import RecencyPropagationNetwork
from repro.graph.digraph import DiGraph
from repro.obs.metrics import METRICS


@pytest.fixture(autouse=True)
def clean_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


def _cached(tiny_ckb):
    """A score-caching linker over ``tiny_ckb``."""
    graph = DiGraph(13, [(10, 11), (11, 12), (12, 10), (10, 12)])
    config = LinkerConfig(burst_threshold=2, influential_users=2, score_caching=True)
    return SocialTemporalLinker(
        tiny_ckb,
        graph,
        config=config,
        candidate_generator=CandidateGenerator(tiny_ckb.kb, max_edits=0),
        propagation_network=RecencyPropagationNetwork(
            tiny_ckb.kb, relatedness_threshold=0.2
        ),
    )


class TestInvalidationExactness:
    """Each mutator invalidates its dependents — and nothing else."""

    def _warm(self, cached, now=8 * DAY):
        cached.link("jordan", 10, now)
        cached.link("jordan", 10, now)  # second pass: everything memoized

    def _delta(self, cached, now=8 * DAY):
        before = {
            name: METRICS.counter(name)
            for name in (
                "score_cache.candidates.hit",
                "score_cache.candidates.miss",
                "score_cache.popularity.hit",
                "score_cache.popularity.miss",
                "score_cache.interest.hit",
                "score_cache.interest.miss",
            )
        }
        cached.link("jordan", 10, now)
        return {
            name: METRICS.counter(name) - count for name, count in before.items()
        }

    def test_warm_path_all_hits(self, tiny_ckb):
        cached = _cached(tiny_ckb)
        self._warm(cached)
        delta = self._delta(cached)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.candidates.miss"] == 0
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.popularity.miss"] == 0
        assert delta["score_cache.interest.hit"] == 1
        assert delta["score_cache.interest.miss"] == 0

    def test_kb_bump_invalidates_candidates_only(self, tiny_ckb):
        cached = _cached(tiny_ckb)
        self._warm(cached)
        tiny_ckb.kb.add_surface_form("unrelated", 5)  # bumps kb.epoch
        delta = self._delta(cached)
        assert delta["score_cache.candidates.miss"] == 1
        # the recomputed candidate tuple is unchanged, so downstream
        # value-keyed lookups still hit — popularity/interest untouched
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.interest.hit"] == 1

    def test_link_bump_invalidates_popularity_and_interest(self, tiny_ckb):
        cached = _cached(tiny_ckb)
        self._warm(cached)
        tiny_ckb.link_tweet(5, user=12, timestamp=8 * DAY)  # bumps link_epoch
        delta = self._delta(cached)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.popularity.miss"] == 1
        assert delta["score_cache.interest.miss"] == 1

    def test_window_slide_leaves_epoch_caches_alone(self, tiny_ckb):
        """Time moving forward is not a structural mutation: recency is
        recomputed (it is never memoized), the memo tables hit."""
        cached = _cached(tiny_ckb)
        self._warm(cached)
        delta = self._delta(cached, now=9 * DAY)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.interest.hit"] == 1
