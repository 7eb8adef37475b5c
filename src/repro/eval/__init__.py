"""Evaluation harness: metrics, chronological replay, experiment setup."""

from repro.eval.context import ExperimentContext, build_experiment
from repro.eval.harness import PredictionRun, replay
from repro.eval.metrics import (
    AccuracyReport,
    accuracy_by_category,
    accuracy_by_tweet_length,
    mention_and_tweet_accuracy,
)
from repro.eval.report_builder import build_report, write_report
from repro.eval.reporting import format_table
from repro.eval.significance import (
    BootstrapComparison,
    accuracy_confidence_interval,
    bootstrap_compare,
)
from repro.eval.sweeps import SweepResult, sweep_configs, sweep_explicit, weight_grid

__all__ = [
    "BootstrapComparison",
    "SweepResult",
    "accuracy_confidence_interval",
    "bootstrap_compare",
    "build_report",
    "sweep_configs",
    "sweep_explicit",
    "weight_grid",
    "write_report",
    "AccuracyReport",
    "ExperimentContext",
    "PredictionRun",
    "accuracy_by_category",
    "accuracy_by_tweet_length",
    "build_experiment",
    "format_table",
    "mention_and_tweet_accuracy",
    "replay",
]
