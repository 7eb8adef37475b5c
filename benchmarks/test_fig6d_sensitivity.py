"""Fig. 6(d) — sensitivity to the feature weights α, β, γ.

Paper: accuracy is genuinely sensitive to the weights; for every α the best
setting has *both* β and γ nonzero, and the peak lies where β > γ (recency
beats popularity).  Expected shape: for the dominant α values, some mixed
(β, γ > 0) setting beats both pure-β and pure-γ, and the global best uses a
large α with β ≥ γ.
"""

from repro.config import LinkerConfig
from repro.eval.reporting import format_table
from repro.eval.sweeps import sweep_explicit, weight_grid

ALPHAS = (0.1, 0.3, 0.6, 0.9)
#: β as a fraction of the non-α mass (γ takes the rest).
BETA_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_fig6d_weight_sensitivity(benchmark, contexts, report):
    context = contexts[0]
    configs = {}
    for alpha, beta, gamma in weight_grid(ALPHAS, BETA_FRACTIONS):
        fraction = round(beta / (1.0 - alpha), 2) if alpha < 1.0 else 0.0
        configs[(alpha, fraction)] = LinkerConfig(alpha=alpha, beta=beta, gamma=gamma)
    sweep = sweep_explicit(
        context, configs.items(), parameters=("alpha", "beta_share")
    )
    grid = {
        (point["alpha"], point["beta_share"]): point["mention_accuracy"]
        for point in sweep.points
    }

    rows = []
    for alpha in ALPHAS:
        row = {"alpha": alpha}
        for fraction in BETA_FRACTIONS:
            row[f"β share {fraction:.2f}"] = round(grid[(alpha, fraction)], 4)
        rows.append(row)
    report(
        "fig6d_sensitivity",
        format_table(
            rows,
            title="Fig 6(d) — mention accuracy over (α, β, γ); "
            "columns split the non-α mass between β and γ",
        ),
    )

    linker = context.social_temporal()
    benchmark(linker.link_tweet, context.test_dataset.tweets[0])

    # sensitivity: the spread over the grid is substantial
    values = list(grid.values())
    assert max(values) - min(values) > 0.05
    # for the dominant alphas, a mixed (β, γ) setting beats both extremes
    mixed_wins = 0
    for alpha in (0.6, 0.9):
        interior = max(grid[(alpha, f)] for f in BETA_FRACTIONS[1:-1])
        if interior >= max(grid[(alpha, 0.0)], grid[(alpha, 1.0)]):
            mixed_wins += 1
    assert mixed_wins >= 1
    # the global optimum sits at a large alpha
    best_alpha, best_fraction = max(grid, key=grid.get)
    assert best_alpha >= 0.6
    # and gives recency at least the popularity share
    assert best_fraction >= 0.5
