"""tf-idf vectorizer and cosine similarity tests."""

import pytest

from repro.text.similarity import CosineSimilarity, TfIdfVectorizer, cosine


class TestCosine:
    def test_identical_vectors(self):
        v = {"a": 1.0, "b": 2.0}
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_vector(self):
        assert cosine({}, {"a": 1.0}) == 0.0
        assert cosine({"a": 1.0}, {}) == 0.0

    def test_scale_invariance(self):
        a = {"x": 1.0, "y": 3.0}
        b = {"x": 2.0, "y": 6.0}
        assert cosine(a, b) == pytest.approx(1.0)

    def test_partial_overlap_between_zero_and_one(self):
        score = cosine({"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 1.0})
        assert 0.0 < score < 1.0


class TestTfIdfVectorizer:
    def test_vectorize_before_fit_raises(self):
        with pytest.raises(ValueError):
            TfIdfVectorizer().vectorize(["a"])

    def test_rare_terms_weigh_more(self):
        vec = TfIdfVectorizer().fit([["common", "rare"], ["common"], ["common"]])
        weights = vec.vectorize(["common", "rare"])
        assert weights["rare"] > weights["common"]

    def test_unseen_terms_get_max_idf(self):
        vec = TfIdfVectorizer().fit([["a"], ["a", "b"]])
        weights = vec.vectorize(["zzz", "a"])
        assert weights["zzz"] > weights["a"]

    def test_empty_document_vectorizes_empty(self):
        vec = TfIdfVectorizer().fit([["a"]])
        assert vec.vectorize([]) == {}

    def test_similarity_of_same_topic_docs_higher(self):
        corpus = [
            ["nba", "bulls", "dunk", "game"],
            ["icml", "model", "inference", "paper"],
        ]
        vec = TfIdfVectorizer().fit(corpus)
        same = vec.similarity(["nba", "game"], corpus[0])
        cross = vec.similarity(["nba", "game"], corpus[1])
        assert same > cross


class TestCosineSimilarity:
    def test_cached_reference_scoring(self):
        vec = TfIdfVectorizer().fit([["nba", "bulls"], ["icml", "model"]])
        sim = CosineSimilarity(vec)
        sim.add_document(0, ["nba", "bulls"])
        sim.add_document(1, ["icml", "model"])
        assert sim.score(0, ["nba"]) > sim.score(1, ["nba"])

    def test_unknown_key_scores_zero(self):
        vec = TfIdfVectorizer().fit([["a"]])
        sim = CosineSimilarity(vec)
        assert sim.score(42, ["a"]) == 0.0
