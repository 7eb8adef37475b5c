"""Property suite for the epoch-keyed score memos: the bit-identity contract.

Two linkers share one world — same complemented KB, same follow graph,
same config except ``score_caching`` — and every test drives both
through the *same* operation sequence, asserting the cached linker's
output equals the uncached one's exactly (``==`` on the full ranked
tuple, scores included: the contract is bit-identity, not tolerance) —
and that both equal a third linker built fresh for that one call, so the
pair cannot be stale together.
Recency is not memoized — both linkers call the one
``propagated_recency`` — so what is held here is that a candidate,
popularity or interest memo never serves a stale share.

The second half pins invalidation *exactness* through METRICS counter
deltas: an epoch bump must invalidate precisely the caches that depend
on the mutated structure, and no others — conservative invalidation is
allowed by the design, but the concrete mutators here have exact
dependencies and the tests hold them to it.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DAY, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.graph.digraph import DiGraph
from repro.obs.metrics import METRICS

from conftest import build_tiny_ckb, build_tiny_kb, fresh_linker, rebuilt_linker


@pytest.fixture(autouse=True)
def clean_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


def _config(**overrides) -> LinkerConfig:
    base = dict(
        burst_threshold=2,
        influential_users=2,
        relatedness_threshold=0.2,
        fuzzy_edit_distance=0,
    )
    base.update(overrides)
    return LinkerConfig(**base)


def _pair(tiny_ckb, **overrides):
    """(uncached, cached) linkers sharing one ckb and one graph."""
    graph = DiGraph.from_edges(13, [(10, 11), (11, 12), (12, 10), (10, 12)])
    config = _config(**overrides)
    uncached = SocialTemporalLinker(tiny_ckb, graph, config=config)
    cached = SocialTemporalLinker(
        tiny_ckb, graph, config=dataclasses.replace(config, score_caching=True)
    )
    return uncached, cached, graph


_SURFACES = ("jordan", "nba", "chicago bulls", "icml", "air jordan", "zzzz")


def _assert_identical(uncached, cached, surface, user, now):
    cold = uncached.link(surface, user, now)
    warm = cached.link(surface, user, now)
    fresh = fresh_linker(uncached).link(surface, user, now)
    assert warm.ranked == cold.ranked == fresh.ranked, (surface, user, now)
    assert warm.degradation == cold.degradation, (surface, user, now)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("propagation", [True, False])
    def test_randomized_interleavings(self, tiny_ckb, seed, propagation):
        """link / mutate / advance / regress / bulk load, in random order —
        the cached linker never deviates from the oracle by one bit."""
        uncached, cached, graph = _pair(
            tiny_ckb, recency_propagation=propagation
        )
        rng = random.Random(seed)
        now = 0.0
        alias = 0
        for step in range(150):
            op = rng.random()
            if op < 0.55:
                _assert_identical(
                    uncached,
                    cached,
                    rng.choice(_SURFACES),
                    rng.choice((10, 11, 12)),
                    now,
                )
            elif op < 0.70:
                now += rng.uniform(0.0, 1.5) * DAY  # window slides
            elif op < 0.80:
                tiny_ckb.link_tweet(
                    rng.randrange(7), user=rng.choice((10, 11, 12)), timestamp=now
                )
            elif op < 0.86:
                alias += 1
                tiny_ckb.kb.add_surface_form(f"alias{alias}", rng.randrange(7))
            elif op < 0.92:
                graph.add_edge(rng.randrange(13), rng.randrange(13))
            elif op < 0.96:
                now = max(0.0, now - 2 * DAY)  # replay restarts
            else:  # draws nothing from rng: the other ops keep their schedule
                tiny_ckb.bulk_link([(step % 7, 10 + step % 3, now, -1)] * 2)
        # one final sweep over every surface at the final clock
        for surface in _SURFACES:
            _assert_identical(uncached, cached, surface, 11, now)

    def test_confirm_link_feedback_loop(self, tiny_ckb):
        """The online feedback path (confirm_link on the cached linker
        itself) flows through the shared ckb and stays bit-identical."""
        uncached, cached, _ = _pair(tiny_ckb)
        for step in range(30):
            now = (8 + step / 10) * DAY
            _assert_identical(uncached, cached, "jordan", 10, now)
            if step % 3 == 0:
                # mutate through the *cached* linker's feedback API; the
                # oracle shares the ckb and reads the write off its versions
                cached.confirm_link(step % 7, user=11, timestamp=now)

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("link"),
                    st.sampled_from(_SURFACES),
                    st.sampled_from((10, 11, 12)),
                ),
                st.tuples(
                    st.sampled_from(("confirm", "ckb_write", "other_linker")),
                    st.integers(0, 6),
                    st.sampled_from((10, 11, 12)),
                ),
                st.tuples(
                    st.just("bulk"), st.integers(0, 6), st.sampled_from((10, 11, 12))
                ),
                st.tuples(st.just("edge"), st.integers(0, 12), st.integers(0, 12)),
            ),
            max_size=25,
        ),
        st.sampled_from(("entropy", "tfidf")),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_linker_equals_a_fresh_one(self, ops, method):
        """Whoever writes — this linker, the CKB's owner, a second linker,
        a bulk load, a new follow edge — the warm linker's next answer is the
        one a linker constructed for that call gives.  Nobody invalidates
        anything: ``U*_e`` reads ``ckb.version``, BFS rows ``graph.epoch``,
        and the merged recency timelines are kept by the CKB's own writers."""
        ckb = build_tiny_ckb(build_tiny_kb())
        graph = DiGraph.from_edges(13, [(10, 11), (11, 12), (12, 10), (10, 12)])
        config = _config(influence_method=method)
        warm = SocialTemporalLinker(ckb, graph, config=config)
        other = SocialTemporalLinker(ckb, graph, config=config)
        now = 9 * DAY
        for op, a, b in ops + [("link", surface, 11) for surface in _SURFACES]:
            if op == "link":
                fresh = fresh_linker(warm).link(a, b, now)
                # ... and the one a linker over a KB rebuilt from the links
                # gives, whose cluster timelines are merged by this call
                rebuilt = rebuilt_linker(warm).link(a, b, now)
                assert warm.link(a, b, now).ranked == fresh.ranked == rebuilt.ranked
            elif op == "confirm":
                warm.confirm_link(a, user=b, timestamp=now)
            elif op == "ckb_write":
                ckb.link_tweet(a, user=b, timestamp=now)
            elif op == "other_linker":
                other.confirm_link(a, user=b, timestamp=now)
            elif op == "bulk":
                ckb.bulk_link([(a, b, now, -1)] * 2)
            elif a != b:
                graph.add_edge(a, b)


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
        _, cached, _ = _pair(tiny_ckb)
        self._warm(cached)
        delta = self._delta(cached)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.candidates.miss"] == 0
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.popularity.miss"] == 0
        assert delta["score_cache.interest.hit"] == 1
        assert delta["score_cache.interest.miss"] == 0

    def test_kb_bump_invalidates_candidates_only(self, tiny_ckb):
        _, cached, _ = _pair(tiny_ckb)
        self._warm(cached)
        tiny_ckb.kb.add_surface_form("unrelated", 5)  # bumps kb.epoch
        delta = self._delta(cached)
        assert delta["score_cache.candidates.miss"] == 1
        # the recomputed candidate tuple is unchanged, so downstream
        # value-keyed lookups still hit — popularity/interest untouched
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.interest.hit"] == 1

    def test_link_bump_invalidates_popularity_and_interest(self, tiny_ckb):
        _, cached, _ = _pair(tiny_ckb)
        self._warm(cached)
        tiny_ckb.link_tweet(5, user=12, timestamp=8 * DAY)  # bumps link_epoch
        delta = self._delta(cached)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.popularity.miss"] == 1
        assert delta["score_cache.interest.miss"] == 1

    def test_graph_bump_invalidates_interest_only(self, tiny_ckb):
        _, cached, graph = _pair(tiny_ckb)
        self._warm(cached)
        assert graph.add_edge(11, 10)  # bumps graph.epoch
        delta = self._delta(cached)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.interest.miss"] == 1

    def test_window_slide_leaves_epoch_caches_alone(self, tiny_ckb):
        """Time moving forward is not a structural mutation: recency is
        recomputed (it is never memoized), the memo tables hit."""
        _, cached, _ = _pair(tiny_ckb)
        self._warm(cached)
        delta = self._delta(cached, now=9 * DAY)
        assert delta["score_cache.candidates.hit"] == 1
        assert delta["score_cache.popularity.hit"] == 1
        assert delta["score_cache.interest.hit"] == 1
