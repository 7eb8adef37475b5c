"""Property-based tests for the search substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.store import TweetStore
from repro.stream.tweet import Tweet

word = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
texts = st.lists(word, min_size=1, max_size=6).map(" ".join)


def make_store(documents):
    return TweetStore(
        Tweet(tweet_id=i, user=0, timestamp=float(i), text=text)
        for i, text in enumerate(documents)
    )


class TestStoreProperties:
    @given(st.lists(texts, min_size=1, max_size=12), st.sets(word, max_size=4))
    @settings(max_examples=150)
    def test_find_by_keywords_matches_scan(self, documents, keywords):
        store = make_store(documents)
        found = {t.tweet_id for t in store.find_by_keywords(keywords, limit=100)}
        expected = {
            i
            for i, text in enumerate(documents)
            if keywords & set(text.split())
        }
        assert found == expected

    @given(st.lists(texts, min_size=1, max_size=10), st.sets(word, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_overlap_bounded_and_consistent(self, documents, keywords):
        store = make_store(documents)
        for i, text in enumerate(documents):
            overlap = store.keyword_overlap(i, keywords)
            assert 0.0 <= overlap <= 1.0
            exact = len(keywords & set(text.split())) / len(keywords)
            assert overlap == exact

    @given(st.lists(texts, min_size=2, max_size=10))
    @settings(max_examples=80)
    def test_results_sorted_by_overlap_then_freshness(self, documents):
        store = make_store(documents)
        keywords = set(documents[0].split())
        results = store.find_by_keywords(keywords, limit=100)
        scores = [
            (store.keyword_overlap(t.tweet_id, keywords), t.timestamp)
            for t in results
        ]
        for (overlap_a, time_a), (overlap_b, time_b) in zip(scores, scores[1:]):
            assert overlap_a > overlap_b or (
                overlap_a == overlap_b and time_a >= time_b
            )


class TestPruneIntegration:
    def test_linker_consistent_after_prune(self, tiny_ckb):
        """Pruning the complemented KB must leave linking functional and
        recency reflecting only the retained horizon."""
        from repro.config import DAY, LinkerConfig
        from repro.core.linker import SocialTemporalLinker
        from repro.graph.digraph import DiGraph

        graph = DiGraph(13)
        graph.add_edge(0, 10)
        linker = SocialTemporalLinker(
            tiny_ckb, graph,
            config=LinkerConfig(burst_threshold=1, influential_users=2),
        )
        before = linker.link("jordan", user=0, now=8 * DAY)
        assert before.best is not None
        removed = tiny_ckb.prune_before(100 * DAY)  # drop everything
        assert removed > 0
        pruned = linker.link("jordan", user=0, now=101 * DAY)
        # influence rankings must reflect the pruned (empty) communities
        assert all(c.interest == 0.0 for c in pruned.ranked)
        linker.confirm_link(0, user=10, timestamp=101 * DAY)  # re-seed
        after = linker.link("jordan", user=0, now=101 * DAY)
        assert after.best is not None
        assert tiny_ckb.count(0) == 1
