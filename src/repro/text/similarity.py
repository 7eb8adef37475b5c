"""Bag-of-words tf-idf vectors and cosine similarity.

The on-the-fly and collective baselines (Sec. 5.1.3) score *context
similarity* between the words around an entity mention and the entity's
description page in the knowledgebase.  This module provides the small
vector-space machinery they share.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Mapping


def cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity between two sparse vectors given as dicts.

    Returns 0.0 when either vector is empty (short tweets routinely produce
    empty contexts — the baselines must degrade gracefully, Sec. 1.1).
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(weight * b.get(term, 0.0) for term, weight in a.items())
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return dot / (norm_a * norm_b)


class TfIdfVectorizer:
    """Fits idf weights on a corpus of token lists and vectorizes documents.

    The corpus is typically the set of entity description pages; query-time
    documents (tweet contexts) are vectorized with the fitted idf table, with
    unseen terms receiving the maximum idf (they are maximally surprising).
    """

    def __init__(self) -> None:
        self._idf: Dict[str, float] = {}
        self._max_idf: float = 0.0
        self._fitted = False

    def fit(self, documents: Iterable[List[str]]) -> "TfIdfVectorizer":
        """Learn idf weights: ``idf(t) = log((1 + N) / (1 + df(t))) + 1``."""
        df: Counter = Counter()
        n_docs = 0
        for tokens in documents:
            n_docs += 1
            df.update(set(tokens))
        self._idf = {
            term: math.log((1 + n_docs) / (1 + count)) + 1.0
            for term, count in df.items()
        }
        self._max_idf = math.log(1 + n_docs) + 1.0 if n_docs else 1.0
        self._fitted = True
        return self

    def vectorize(self, tokens: List[str]) -> Dict[str, float]:
        """Return the tf-idf vector of ``tokens`` as a sparse dict."""
        if not self._fitted:
            raise ValueError("TfIdfVectorizer.vectorize called before fit()")
        counts = Counter(tokens)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {
            term: (count / total) * self._idf.get(term, self._max_idf)
            for term, count in counts.items()
        }

    def similarity(self, tokens_a: List[str], tokens_b: List[str]) -> float:
        """Cosine similarity between the tf-idf vectors of two documents."""
        return cosine(self.vectorize(tokens_a), self.vectorize(tokens_b))


class CosineSimilarity:
    """Pre-vectorized cosine similarity against a fixed document collection.

    Caches the tf-idf vector of each reference document (entity description)
    so scoring a tweet context against many candidates does not re-vectorize
    the candidate side each time.
    """

    def __init__(self, vectorizer: TfIdfVectorizer) -> None:
        self._vectorizer = vectorizer
        self._cache: Dict[int, Dict[str, float]] = {}

    def add_document(self, key: int, tokens: List[str]) -> None:
        """Register reference document ``key`` with its token list."""
        self._cache[key] = self._vectorizer.vectorize(tokens)

    def score(self, key: int, query_tokens: List[str]) -> float:
        """Similarity between document ``key`` and a query token list."""
        reference = self._cache.get(key)
        if reference is None:
            return 0.0
        return cosine(self._vectorizer.vectorize(query_tokens), reference)
