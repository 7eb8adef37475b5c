"""LinkerConfig validation and the paper's Table-3 defaults."""

import dataclasses

import pytest

from repro.config import DAY, DEFAULT_CONFIG, PAPER_BURST_THRESHOLD, LinkerConfig


class TestTable3Defaults:
    """Default parameters must match Table 3 of the paper."""

    def test_feature_weights(self):
        assert DEFAULT_CONFIG.alpha == 0.6
        assert DEFAULT_CONFIG.beta == 0.3
        assert DEFAULT_CONFIG.gamma == 0.1

    def test_window_is_three_days(self):
        assert DEFAULT_CONFIG.window == 3 * DAY

    def test_relatedness_threshold(self):
        assert DEFAULT_CONFIG.relatedness_threshold == 0.6

    def test_paper_burst_threshold_constant(self):
        # Table 3 says theta_1 = 10; the runtime default is scaled to the
        # synthetic stream density (DESIGN.md §5) but the paper constant
        # stays available.
        assert PAPER_BURST_THRESHOLD == 10
        assert 0 < DEFAULT_CONFIG.burst_threshold <= PAPER_BURST_THRESHOLD

    def test_max_hops_small_world(self):
        assert DEFAULT_CONFIG.max_hops == 4


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="must be 1"):
            LinkerConfig(alpha=0.5, beta=0.5, gamma=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinkerConfig(alpha=1.2, beta=-0.3, gamma=0.1)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            LinkerConfig(window=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field, match",
        [
            ("alpha", "finite"),
            ("beta", "finite"),
            ("gamma", "finite"),
            ("window", "window"),
            ("deadline_ms", "deadline_ms"),
        ],
    )
    def test_non_finite_value_rejected(self, field, match, value):
        # NaN fails every comparison, so a bare ``<= 0`` check let it pass
        with pytest.raises(ValueError, match=match):
            LinkerConfig(**{field: value})

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="relatedness_threshold"):
            LinkerConfig(relatedness_threshold=1.5)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError, match="propagation_lambda"):
            LinkerConfig(propagation_lambda=-0.1)

    def test_bad_influence_method_rejected(self):
        with pytest.raises(ValueError, match="influence"):
            LinkerConfig(influence_method="pagerank")

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError, match="max_hops"):
            LinkerConfig(max_hops=0)

    def test_zero_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k"):
            LinkerConfig(top_k=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.alpha = 0.5


class TestHelpers:
    def test_with_weights_returns_new_config(self):
        updated = DEFAULT_CONFIG.with_weights(1.0, 0.0, 0.0)
        assert updated.alpha == 1.0
        assert DEFAULT_CONFIG.alpha == 0.6  # original untouched
        assert updated.window == DEFAULT_CONFIG.window

    def test_no_interest_bound_is_beta_plus_gamma(self):
        config = LinkerConfig(alpha=0.5, beta=0.3, gamma=0.2)
        assert config.no_interest_bound == pytest.approx(0.5)
