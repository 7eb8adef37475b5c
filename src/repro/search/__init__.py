"""Personalized microblog search — the paper's motivating application.

Sec. 3.2.2: "if the input entity mention comes from a keyword query, our
system will collect tweets linked to the top-k entities from the
complemented knowledgebase and regard them as answers to that query".

* :mod:`repro.search.store` — tweet store with an inverted keyword index;
* :mod:`repro.search.engine` — the engine: link the query's mentions
  through :class:`~repro.core.pipeline.TextLinkingPipeline` (the same
  gazetteer and linker as tweets), fetch the linked entities' tweets, rank
  by freshness and relevance to the words no mention covers.
"""

from repro.search.engine import PersonalizedSearchEngine, SearchHit, SearchResponse
from repro.search.store import TweetStore

__all__ = [
    "PersonalizedSearchEngine",
    "SearchHit",
    "SearchResponse",
    "TweetStore",
]
