"""Parameter sweep utility tests."""

import pytest

from repro.config import LinkerConfig
from repro.eval.sweeps import SweepResult, sweep_configs, weight_grid


class TestWeightGrid:
    def test_triplets_sum_to_one(self):
        for alpha, beta, gamma in weight_grid((0.1, 0.6), (0.0, 0.5, 1.0)):
            assert alpha + beta + gamma == pytest.approx(1.0)
            LinkerConfig(alpha=alpha, beta=beta, gamma=gamma)  # validates

    def test_beta_fraction_semantics(self):
        triplets = weight_grid((0.6,), (0.0, 1.0))
        assert triplets[0] == (0.6, 0.0, pytest.approx(0.4))
        assert triplets[1] == (0.6, pytest.approx(0.4), 0.0)

    def test_grid_size(self):
        assert len(weight_grid((0.1, 0.3, 0.6), (0.0, 0.5))) == 6


class TestSweepResult:
    @pytest.fixture
    def result(self):
        points = [
            {"a": 1, "b": 10, "mention_accuracy": 0.5},
            {"a": 1, "b": 20, "mention_accuracy": 0.7},
            {"a": 2, "b": 10, "mention_accuracy": 0.6},
            {"a": 2, "b": 20, "mention_accuracy": 0.4},
        ]
        return SweepResult(parameters=("a", "b"), points=points)

    def test_best(self, result):
        best = result.best()
        assert (best["a"], best["b"]) == (1, 20)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepResult(parameters=(), points=[]).best()


class TestSweepConfigs:
    def test_runs_grid_over_context(self, small_context):
        result = sweep_configs(
            small_context,
            {"burst_threshold": [1, 5], "influential_users": [1, 3]},
        )
        assert len(result.points) == 4
        for point in result.points:
            assert 0.0 <= point["mention_accuracy"] <= 1.0
            assert point["ms_per_tweet"] > 0.0
            assert point["burst_threshold"] in (1, 5)

    def test_single_parameter(self, small_context):
        result = sweep_configs(small_context, {"influential_users": [2]})
        assert len(result.points) == 1
        assert result.parameters == ("influential_users",)
