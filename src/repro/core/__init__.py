"""The paper's contribution: social-temporal entity linking.

Public entry point is :class:`SocialTemporalLinker`; the submodules expose
the individual features (interest, recency, popularity, influence) for
ablation experiments and reuse.
"""

from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.candidates import CandidateGenerator
from repro.core.pipeline import AnnotatedText, TextLinkingPipeline
from repro.core.influence import entropy_influence, tfidf_influence, top_influential_users
from repro.core.interest import ReachabilityProvider, user_interest
from repro.core.linker import LinkResult, MentionResult, SocialTemporalLinker
from repro.core.popularity import popularity_scores
from repro.core.recency import RecencyPropagationNetwork, sliding_window_recency
from repro.core.scoring import ScoredCandidate, combine_scores

__all__ = [
    "AnnotatedText",
    "CandidateGenerator",
    "LinkRequest",
    "LinkResult",
    "MicroBatchLinker",
    "TextLinkingPipeline",
    "MentionResult",
    "ReachabilityProvider",
    "RecencyPropagationNetwork",
    "ScoredCandidate",
    "SocialTemporalLinker",
    "combine_scores",
    "entropy_influence",
    "popularity_scores",
    "sliding_window_recency",
    "tfidf_influence",
    "top_influential_users",
    "user_interest",
]
