"""Parameter sweep utilities for sensitivity experiments.

Fig. 6(d) and the window/landmark ablations all share the same skeleton:
vary some :class:`~repro.config.LinkerConfig` fields over a grid, replay
the test set, collect accuracy (and latency).  :func:`sweep_configs` runs
that loop once; :class:`SweepResult` knows how to find optima and render
paper-style grid tables.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.config import LinkerConfig
from repro.eval.context import ExperimentContext
from repro.eval.metrics import mention_and_tweet_accuracy

#: One grid point: the overridden fields and the measured outcomes.
SweepPoint = Dict[str, object]


@dataclasses.dataclass
class SweepResult:
    """Measured grid of one parameter sweep."""

    parameters: Tuple[str, ...]
    points: List[SweepPoint]

    def best(self, metric: str = "mention_accuracy") -> SweepPoint:
        """Grid point maximizing ``metric``."""
        if not self.points:
            raise ValueError("empty sweep")
        return max(self.points, key=lambda p: p[metric])


def sweep_configs(
    context: ExperimentContext,
    grid: Mapping[str, Sequence[object]],
    base: LinkerConfig = None,
) -> SweepResult:
    """Run the linker once per grid point over the context's test set.

    ``grid`` maps :class:`LinkerConfig` field names to value lists; the
    cartesian product is evaluated.  Each returned point carries the
    overridden fields plus ``mention_accuracy``, ``tweet_accuracy`` and
    ``ms_per_tweet``.
    """
    base = base or context.config
    parameters = tuple(grid.keys())
    points: List[SweepPoint] = []
    for combination in itertools.product(*grid.values()):
        overrides = dict(zip(parameters, combination))
        config = dataclasses.replace(base, **overrides)
        run = context.social_temporal(config=config).run(context.test_dataset)
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        point: SweepPoint = dict(overrides)
        point["mention_accuracy"] = accuracy.mention_accuracy
        point["tweet_accuracy"] = accuracy.tweet_accuracy
        point["ms_per_tweet"] = run.seconds_per_tweet * 1e3
        points.append(point)
    return SweepResult(parameters=parameters, points=points)


def sweep_explicit(
    context: ExperimentContext,
    configs: Mapping[Tuple[object, ...], LinkerConfig],
    parameters: Tuple[str, ...],
) -> SweepResult:
    """Sweep over explicitly constructed configs (co-varying fields).

    ``configs`` maps a tuple of parameter values (aligned with
    ``parameters``) to the full :class:`LinkerConfig` to evaluate — the
    form needed when fields must co-vary, like the (α, β, γ) simplex.
    """
    points: List[SweepPoint] = []
    for values, config in configs.items():
        run = context.social_temporal(config=config).run(context.test_dataset)
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        point: SweepPoint = dict(zip(parameters, values))
        point["mention_accuracy"] = accuracy.mention_accuracy
        point["tweet_accuracy"] = accuracy.tweet_accuracy
        point["ms_per_tweet"] = run.seconds_per_tweet * 1e3
        points.append(point)
    return SweepResult(parameters=parameters, points=points)


def weight_grid(
    alphas: Sequence[float], beta_fractions: Sequence[float]
) -> List[Tuple[float, float, float]]:
    """(α, β, γ) triplets: β takes ``fraction`` of the non-α mass.

    The Fig. 6(d) sweep shape; rounding keeps the triplets summing to 1
    within :class:`LinkerConfig`'s tolerance.
    """
    triplets: List[Tuple[float, float, float]] = []
    for alpha in alphas:
        rest = round(1.0 - alpha, 10)
        for fraction in beta_fractions:
            beta = round(rest * fraction, 10)
            gamma = round(rest - beta, 10)
            triplets.append((alpha, beta, gamma))
    return triplets
