"""Experiment assembly shared by tests, examples, and benchmarks.

One :class:`ExperimentContext` corresponds to one experimental setting of
the paper: a synthetic world (KB + users + follow graph + stream), the
activity split (Table 2), a knowledgebase complemented from one of the
active-user datasets (Sec. 3.2.1), factories for the three competing
methods, and :meth:`ExperimentContext.run`, which replays the test set
through one of them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.baselines.collective import CollectiveLinker
from repro.baselines.common import IntraTweetScorer
from repro.baselines.onthefly import OnTheFlyLinker
from repro.config import DEFAULT_CONFIG, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.core.recency import RecencyPropagationNetwork
from repro.eval.harness import PredictionRun, replay
from repro.graph.dispatch import build_reachability_index
from repro.kb.complemented import ComplementedKnowledgebase
from repro.stream.dataset import DatasetCatalog, TweetDataset, split_by_activity
from repro.stream.generator import SyntheticWorld

#: The three competing methods, by the names ``ExperimentContext.run`` and
#: ``repro evaluate --method`` take: ours, TAGME-style, Shen et al.
METHODS = ("ours", "onthefly", "collective")


def complement_knowledgebase(
    world: SyntheticWorld,
    dataset: TweetDataset,
    method: str = "collective",
) -> ComplementedKnowledgebase:
    """Offline knowledge acquisition over one active-user dataset.

    ``method="collective"`` replays the paper's pipeline: the batch linker
    of [2] labels the dataset (mistakes included) and its links populate
    :math:`D_e`.  ``method="truth"`` uses the generator's labels directly —
    a perfect-offline-linking upper bound, handy for fast unit tests and
    for isolating online-inference effects from complementation noise.
    """
    ckb = ComplementedKnowledgebase(world.kb)
    if method == "truth":
        ckb.bulk_link(
            (mention.true_entity, tweet.user, tweet.timestamp, tweet.tweet_id)
            for tweet in dataset.tweets
            for mention in tweet.mentions
            if mention.true_entity is not None
        )
    elif method == "collective":
        # per link: the scorer reads ckb.count(e) while the labels are written
        linker = CollectiveLinker(ckb)
        linker.complement_kb(list(dataset.tweets))
    else:
        raise ValueError(f"unknown complementation method {method!r}")
    return ckb


@dataclasses.dataclass
class ExperimentContext:
    """A fully wired experimental setting."""

    world: SyntheticWorld
    catalog: DatasetCatalog
    threshold: int
    ckb: ComplementedKnowledgebase
    config: LinkerConfig
    _scorer: Optional[IntraTweetScorer] = None
    _propagation: Optional[RecencyPropagationNetwork] = None
    _reachability_index: Optional[object] = None

    # ------------------------------------------------------------------ #
    # shared heavy pieces (built once, reused across methods)
    # ------------------------------------------------------------------ #
    @property
    def scorer(self) -> IntraTweetScorer:
        if self._scorer is None:
            self._scorer = IntraTweetScorer(self.ckb)
        return self._scorer

    @property
    def propagation_network(self) -> RecencyPropagationNetwork:
        if self._propagation is None:
            self._propagation = RecencyPropagationNetwork(self.world.kb)
        return self._propagation

    @property
    def reachability_index(self):
        """The backend ``config.select_index_backend`` picks for this
        world's graph (closure below the node threshold, compact 2-hop
        cover above — docs/scaling.md)."""
        if self._reachability_index is None:
            self._reachability_index = build_reachability_index(
                self.world.graph, self.config
            )
        return self._reachability_index

    @property
    def test_dataset(self) -> TweetDataset:
        return self.catalog.test

    # ------------------------------------------------------------------ #
    # method factories
    # ------------------------------------------------------------------ #
    def social_temporal(
        self, config: Optional[LinkerConfig] = None
    ) -> SocialTemporalLinker:
        """Our method, scoring Eq. 4 against :attr:`reachability_index`."""
        effective = config or self.config
        propagation = (
            self.propagation_network if effective.recency_propagation else None
        )
        return SocialTemporalLinker(
            self.ckb,
            self.world.graph,
            config=effective,
            reachability=self.reachability_index,
            propagation_network=propagation,
        )

    def onthefly(self) -> OnTheFlyLinker:
        return OnTheFlyLinker(self.ckb, scorer=self.scorer)

    def collective(self) -> CollectiveLinker:
        return CollectiveLinker(self.ckb, scorer=self.scorer)

    def run(
        self, method: str, config: Optional[LinkerConfig] = None
    ) -> PredictionRun:
        """Replay the test set through one of :data:`METHODS`; ``config``
        (default: the context's) configures ``ours``."""
        if method == "ours":
            linker = self.social_temporal(config)
        elif config is not None:
            raise ValueError(f"a config configures 'ours', not {method!r}")
        elif method == "onthefly":
            linker = self.onthefly()
        elif method == "collective":
            linker = self.collective()
        else:
            raise ValueError(f"unknown method {method!r}, not one of {METHODS}")
        return replay(linker, self.test_dataset.tweets)


def activity_split(world: SyntheticWorld, test_user_cap: int = 200) -> DatasetCatalog:
    """The activity split (Table 2) of ``world``'s stream, hub accounts
    excluded: what :func:`build_experiment` complements from and tests on,
    and all a load client replaying the test split needs."""
    hub_users = {h for topic_hubs in world.hubs for h in topic_hubs}
    return split_by_activity(
        world.tweets, test_user_cap=test_user_cap, exclude_users=hub_users
    )


def build_experiment(
    world: Optional[SyntheticWorld] = None,
    threshold: int = 10,
    complement_method: str = "collective",
    config: LinkerConfig = DEFAULT_CONFIG,
    test_user_cap: int = 200,
) -> ExperimentContext:
    """Assemble an :class:`ExperimentContext` (generating a world if needed)."""
    if world is None:
        world = SyntheticWorld.generate()
    catalog = activity_split(world, test_user_cap)
    ckb = complement_knowledgebase(
        world, catalog.dataset(threshold), method=complement_method
    )
    return ExperimentContext(
        world=world, catalog=catalog, threshold=threshold, ckb=ckb, config=config
    )
