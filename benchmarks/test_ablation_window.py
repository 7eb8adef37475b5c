"""Ablation (DESIGN.md) — recency window τ and burst threshold θ1.

Eq. 9's sliding window has two knobs the paper fixes by hand (τ = 3 days,
θ1 calibrated to the stream rate).  This ablation sweeps both around the
defaults with recency as the only feature, mapping how the burst detector
degrades when the window is too short (no burst ever qualifies) or too long
(recency degenerates toward popularity).  Expected shape: recency-only
accuracy peaks at an interior (τ, θ1) cell, not at the extremes.
"""

import dataclasses

from repro.config import DAY, LinkerConfig
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table

WINDOWS_DAYS = (0.25, 1, 3, 10, 30)
THRESHOLDS = (1, 3, 10)


def test_ablation_recency_window(benchmark, contexts, report):
    context = contexts[0]
    base = LinkerConfig().with_weights(0.0, 1.0, 0.0)
    grid = {}
    for days in WINDOWS_DAYS:
        for threshold in THRESHOLDS:
            config = dataclasses.replace(
                base, window=days * DAY, burst_threshold=threshold
            )
            run = context.run("ours", config)
            accuracy = mention_and_tweet_accuracy(
                context.test_dataset.tweets, run.predictions
            )
            grid[(days, threshold)] = accuracy.mention_accuracy

    rows = []
    for days in WINDOWS_DAYS:
        row = {"window (days)": days}
        for threshold in THRESHOLDS:
            row[f"θ1={threshold}"] = round(grid[(days, threshold)], 4)
        rows.append(row)
    report(
        "ablation_window",
        format_table(rows, title="Ablation — recency-only accuracy over (τ, θ1)"),
    )

    linker = context.social_temporal(config=base)
    benchmark(linker.link_tweet, context.test_dataset.tweets[0])

    best_days, best_threshold = max(grid, key=grid.get)
    # an interior window wins: neither the 6-hour nor the 30-day extreme
    assert 0.25 < best_days < 30
    # overly strict thresholds starve the detector
    strictest_column = [grid[(days, THRESHOLDS[-1])] for days in WINDOWS_DAYS]
    best = grid[(best_days, best_threshold)]
    assert best >= max(strictest_column)
