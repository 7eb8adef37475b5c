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
