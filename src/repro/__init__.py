"""repro — reproduction of *Microblog Entity Linking with Social Temporal
Context* (Hua, Zheng, Zhou; SIGMOD 2015).

Quickstart::

    from repro import build_experiment

    context = build_experiment()        # KB + users + stream + linkers
    run = context.run("ours")           # replay the test set, timed

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.config import DAY, DEFAULT_CONFIG, DEFAULT_MAX_HOPS, LinkerConfig
from repro.errors import (
    CheckpointCorruptError,
    CircuitOpenError,
    DeadlineExceededError,
    DuplicateTweetError,
    IndexUnavailableError,
    MalformedTweetError,
    ReproError,
    StaleTimestampError,
    UnknownUserError,
    WorldFileError,
)
from repro.core import (
    CandidateGenerator,
    LinkResult,
    RecencyPropagationNetwork,
    ScoredCandidate,
    SocialTemporalLinker,
)
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.pipeline import AnnotatedText, TextLinkingPipeline
from repro.baselines import CollectiveLinker, OnTheFlyLinker
from repro.eval import build_experiment, mention_and_tweet_accuracy
from repro.graph import (
    CompactTwoHopCover,
    DiGraph,
    TransitiveClosure,
    build_reachability_index,
    build_transitive_closure_incremental,
    weighted_reachability,
)
from repro.io import load_world, save_world
from repro.kb import (
    ComplementedKnowledgebase,
    Knowledgebase,
    KBProfile,
    SyntheticWikipediaBuilder,
)
from repro.log import configure_logging, get_logger
from repro.resilience import BreakerState, CircuitBreaker
from repro.search import PersonalizedSearchEngine, TweetStore
from repro.stream import (
    ResilientIngestor,
    StreamProfile,
    SyntheticWorld,
    Tweet,
    TweetValidator,
)

__version__ = "1.0.0"

__all__ = [
    "AnnotatedText",
    "BreakerState",
    "CandidateGenerator",
    "CheckpointCorruptError",
    "CircuitBreaker",
    "CircuitOpenError",
    "CollectiveLinker",
    "CompactTwoHopCover",
    "ComplementedKnowledgebase",
    "DAY",
    "DeadlineExceededError",
    "DuplicateTweetError",
    "DEFAULT_CONFIG",
    "DEFAULT_MAX_HOPS",
    "DiGraph",
    "IndexUnavailableError",
    "KBProfile",
    "Knowledgebase",
    "LinkRequest",
    "LinkResult",
    "LinkerConfig",
    "MalformedTweetError",
    "MicroBatchLinker",
    "OnTheFlyLinker",
    "PersonalizedSearchEngine",
    "RecencyPropagationNetwork",
    "ReproError",
    "ResilientIngestor",
    "ScoredCandidate",
    "SocialTemporalLinker",
    "StaleTimestampError",
    "StreamProfile",
    "SyntheticWikipediaBuilder",
    "SyntheticWorld",
    "TextLinkingPipeline",
    "TransitiveClosure",
    "Tweet",
    "TweetStore",
    "TweetValidator",
    "UnknownUserError",
    "WorldFileError",
    "build_experiment",
    "configure_logging",
    "get_logger",
    "build_reachability_index",
    "build_transitive_closure_incremental",
    "load_world",
    "mention_and_tweet_accuracy",
    "save_world",
    "weighted_reachability",
]
