"""Parameters of the entity-linking framework.

Table 3 of the paper ("Default values of parameters") and Eq. 11's
restart probability, each with the value this library ships and where
that value lives: a lower-case name is a :class:`LinkerConfig` field, an
option a caller may set; an upper-case name is a constant of this module,
the one value in use (``tests/test_config.py`` checks every row):

======  =====  =======  ======================  ===========================================
symbol  paper  shipped  lives in                meaning
======  =====  =======  ======================  ===========================================
α       0.6    0.6      alpha                   weight of user interest :math:`S_{in}`
β       0.3    0.3      beta                    weight of entity recency :math:`S_r`
γ       0.1    0.1      gamma                   weight of entity popularity :math:`S_p`
τ       3 d    3 d      window                  sliding window for recency
θ1      10     3        burst_threshold         min recent tweets for a burst (DESIGN.md §5)
θ2      0.6    0.6      RELATEDNESS_THRESHOLD   min WLM weight kept in the propagation network
λ       —      0.5      PROPAGATION_LAMBDA      restart probability of Eq. 11 (not in Table 3)
H       —      4        DEFAULT_MAX_HOPS        max hops of weighted reachability
======  =====  =======  ======================  ===========================================

The paper's Eq. 1 and Table 3 disagree on which of ``beta``/``gamma`` is
recency vs. popularity; we follow Table 3 (and Table 4 / Appendix D, which
are only self-consistent that way): **alpha = interest, beta = recency,
gamma = popularity**.  See DESIGN.md.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

#: Seconds in one day; timestamps throughout the library are POSIX seconds.
DAY = 86_400.0

#: Default maximum number of hops for reachability (small-world 4.12 steps).
DEFAULT_MAX_HOPS = 4

#: Table 3's burst threshold, calibrated by the authors for a corpus of
#: ~240k tweets/day.  The synthetic streams here run at a few hundred
#: tweets/day, so :class:`LinkerConfig` scales the default down (see
#: DESIGN.md §5); the paper's value is kept for reference and tests.
PAPER_BURST_THRESHOLD = 10

#: :math:`\theta_2` — minimum WLM relatedness kept in the recency
#: propagation network.
RELATEDNESS_THRESHOLD = 0.6

#: :math:`\lambda` — restart probability in recency propagation (Eq. 11).
PROPAGATION_LAMBDA = 0.5

#: Edit-distance threshold of fuzzy candidate generation.
FUZZY_EDIT_DISTANCE = 1

#: ``index_backend="auto"`` node threshold: at or below it the closure's
#: O(1) lookups win; above it the |V|² matrix stops fitting and the
#: compact 2-hop cover takes over.
CLOSURE_MAX_NODES = 2000


@dataclasses.dataclass(frozen=True)
class LinkerConfig:
    """Immutable bag of tunables for :class:`repro.core.SocialTemporalLinker`.

    All weights must be non-negative and ``alpha + beta + gamma`` must equal
    one (validated in ``__post_init__``).
    """

    #: Weight of user interest :math:`S_{in}(u, e)`.
    alpha: float = 0.6
    #: Weight of entity recency :math:`S_r(e)`.
    beta: float = 0.3
    #: Weight of entity popularity :math:`S_p(e)`.
    gamma: float = 0.1
    #: Sliding window :math:`\tau` (seconds) for recency, default 3 days.
    window: float = 3 * DAY
    #: :math:`\theta_1` — minimum number of recent tweets to call a burst.
    #: Paper default is 10 at ~240k tweets/day (``PAPER_BURST_THRESHOLD``);
    #: scaled to the synthetic stream density used throughout this repo.
    burst_threshold: int = 3
    #: Number of influential users kept per community (:math:`|U^*_e|`).
    influential_users: int = 3
    #: Influence estimator: ``"entropy"`` (Eq. 7) or ``"tfidf"`` (Eq. 6).
    influence_method: str = "entropy"
    #: Enable recency reinforcement between related entities (Fig. 4(d)).
    recency_propagation: bool = True
    #: Per-mention latency budget (milliseconds) for online inference.
    #: ``None`` disables the budget entirely — the default, so batch/eval
    #: runs are untouched.  When set, a mention whose interest computation
    #: exceeds the budget degrades to ``β·S_r + γ·S_p`` scoring (the
    #: Appendix-D no-interest bound) instead of blocking the stream.
    deadline_ms: Optional[float] = None
    #: Upper bound, in candidate sets, on the linker's LRU of
    #: influential-user rankings (one entry holds a whole set's ``U*_e``).
    influential_cache_size: int = 4096
    #: Enable the epoch-keyed score memos of :mod:`repro.cache`
    #: (DESIGN.md §10).  Off by default so baseline runs and golden traces
    #: are untouched; when on, the linker's output is bit-identical to the
    #: uncached path.
    score_caching: bool = False
    #: Reachability index backend: ``"auto"`` picks by graph size, or
    #: force one of ``"closure"`` (extended transitive closure,
    #: Algorithm 1) and ``"compact"`` (array-backed 2-hop cover,
    #: docs/scaling.md).
    index_backend: str = "auto"

    def __post_init__(self) -> None:
        weights = (self.alpha, self.beta, self.gamma)
        # NaN fails every comparison below, so it would pass every check:
        # rejected first, with infinities (a budget that never fires)
        if not all(map(math.isfinite, weights)):
            raise ValueError(f"feature weights must be finite, got {weights}")
        if any(w < 0 for w in weights):
            raise ValueError(f"feature weights must be non-negative, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"alpha + beta + gamma must be 1, got {sum(weights)}")
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be positive and finite, got {self.window!r}")
        if self.burst_threshold < 0:
            raise ValueError("burst_threshold must be non-negative")
        if self.influential_users < 1:
            raise ValueError("influential_users must be at least 1")
        if self.influence_method not in ("entropy", "tfidf"):
            raise ValueError(f"unknown influence method {self.influence_method!r}")
        if self.deadline_ms is not None and not (
            math.isfinite(self.deadline_ms) and self.deadline_ms > 0
        ):
            raise ValueError(
                f"deadline_ms must be positive and finite when set, got {self.deadline_ms!r}"
            )
        if self.influential_cache_size < 1:
            raise ValueError("influential_cache_size must be at least 1")
        if self.index_backend not in ("auto", "closure", "compact"):
            raise ValueError(f"unknown index backend {self.index_backend!r}")

    def select_index_backend(self, num_nodes: int) -> str:
        """Scale-aware reachability-index choice.

        ``"auto"`` resolves by graph size: the transitive closure at or
        below ``CLOSURE_MAX_NODES`` (O(1) lookups, |V|²-bounded build),
        the compact 2-hop cover above it.  A forced ``index_backend``
        short-circuits.  The choice moves where the work happens, not
        what the linker decides: every provider rounds Eq. 4 in
        :func:`repro.graph.reachability.reachability_weight`
        (the Eq. 4 tie of ``tests/test_differential.py``).
        """
        if self.index_backend != "auto":
            return self.index_backend
        return "closure" if num_nodes <= CLOSURE_MAX_NODES else "compact"

    def with_weights(self, alpha: float, beta: float, gamma: float) -> "LinkerConfig":
        """Return a copy with the three feature weights replaced."""
        return dataclasses.replace(self, alpha=alpha, beta=beta, gamma=gamma)

    @property
    def no_interest_bound(self) -> float:
        """Score ceiling ``beta + gamma`` for entities the user has no
        interest in (Appendix D); used as the abstention threshold."""
        return self.beta + self.gamma


#: Shared default configuration (paper Table 3).
DEFAULT_CONFIG = LinkerConfig()
