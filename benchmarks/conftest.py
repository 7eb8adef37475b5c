"""Shared fixtures for the paper-reproduction benchmarks.

Accuracy experiments average over three world seeds (the synthetic stand-in
for the paper's single crawled corpus); heavy artifacts — worlds, collective
complementation, prediction runs — are built once per session and cached.

Each benchmark prints the paper-style table through the ``report`` fixture,
which also writes it to ``benchmarks/results/<experiment>.txt`` so the
tables survive output capturing.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.config import LinkerConfig
from repro.eval.context import ExperimentContext, build_experiment
from repro.eval.harness import PredictionRun
from repro.eval.metrics import AccuracyReport, mention_and_tweet_accuracy
from repro.stream.generator import StreamProfile, SyntheticWorld

#: Seeds of the three evaluation worlds (see DESIGN.md §2 on averaging).
WORLD_SEEDS: Tuple[int, ...] = (11, 12, 13)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def contexts() -> List[ExperimentContext]:
    """One collectively-complemented experiment context per world seed."""
    built = []
    for seed in WORLD_SEEDS:
        world = SyntheticWorld.generate(stream_profile=StreamProfile(seed=seed))
        built.append(build_experiment(world=world, complement_method="collective"))
    return built


class RunCache:
    """Memoizes (seed index, variant) -> PredictionRun on the test sets."""

    def __init__(self, contexts: List[ExperimentContext]) -> None:
        self._contexts = contexts
        self._runs: Dict[Tuple[int, str], PredictionRun] = {}

    @property
    def contexts(self) -> List[ExperimentContext]:
        return self._contexts

    def run(self, index: int, variant: str) -> PredictionRun:
        """``variant`` is ``on-the-fly``, ``collective``, ``ours`` or
        ``ours:<spec>`` (see :func:`_variant_config`)."""
        key = (index, variant)
        if key not in self._runs:
            method, _, spec = variant.partition(":")
            config = _variant_config(spec) if spec else None
            self._runs[key] = self._contexts[index].run(
                "onthefly" if method == "on-the-fly" else method, config
            )
        return self._runs[key]

    def accuracy(self, variant: str) -> AccuracyReport:
        """Seed-averaged accuracy of a variant."""
        mention = tweet = 0.0
        mentions = tweets = 0
        for index, context in enumerate(self._contexts):
            run = self.run(index, variant)
            report = mention_and_tweet_accuracy(
                context.test_dataset.tweets, run.predictions
            )
            mention += report.mention_accuracy / len(self._contexts)
            tweet += report.tweet_accuracy / len(self._contexts)
            mentions += report.num_mentions
            tweets += report.num_tweets
        return AccuracyReport(
            mention_accuracy=mention,
            tweet_accuracy=tweet,
            num_mentions=mentions,
            num_tweets=tweets,
        )

    def latency_ms(self, variant: str) -> Tuple[float, float]:
        """Seed-averaged (ms per mention, ms per tweet)."""
        per_mention = per_tweet = 0.0
        for index in range(len(self._contexts)):
            run = self.run(index, variant)
            per_mention += run.seconds_per_mention * 1e3 / len(self._contexts)
            per_tweet += run.seconds_per_tweet * 1e3 / len(self._contexts)
        return per_mention, per_tweet


def _variant_config(spec: str) -> LinkerConfig:
    """Parse ``ours:`` variant specs like ``"alpha=1,beta=0,gamma=0"``."""
    config = LinkerConfig()
    fields: Dict[str, object] = {}
    for part in spec.split(","):
        name, _, raw = part.partition("=")
        current = getattr(config, name)  # raises AttributeError on typos
        if isinstance(current, bool):
            fields[name] = raw in ("True", "true", "1")
        elif isinstance(current, int):
            fields[name] = int(raw)
        elif isinstance(current, float):
            fields[name] = float(raw)
        else:
            fields[name] = raw
    return dataclasses.replace(config, **fields)


@pytest.fixture(scope="session")
def runs(contexts) -> RunCache:
    return RunCache(contexts)


@pytest.fixture
def report(capsys):
    """Print a reproduction table past pytest's capture and archive it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}")

    return _report
