"""LinkerConfig validation, its option set, and the paper's Table-3 values."""

import dataclasses
import re

import pytest

import repro.config
from repro.config import DAY, DEFAULT_CONFIG, PAPER_BURST_THRESHOLD, LinkerConfig


def table_rows():
    """``(symbol, paper, shipped, lives in)`` of each row of the parameter
    table in ``repro.config``'s docstring, cut at its rule's columns."""
    lines = repro.config.__doc__.splitlines()
    rules = [index for index, line in enumerate(lines) if line.startswith("=")]
    assert len(rules) == 3, "the docstring holds one simple table"
    spans = [match.span() for match in re.finditer("=+", lines[rules[0]])]
    return [
        tuple(lines[index][start:end].strip() for start, end in spans[:4])
        for index in range(rules[1] + 1, rules[2])
    ]


ROWS = table_rows()


def value_of(text):
    """A table cell as a number: ``3 d`` is three days in seconds."""
    number, _, unit = text.partition(" ")
    return float(number) * (DAY if unit == "d" else 1)


class TestTable3Defaults:
    """The docstring table states each parameter's paper and shipped
    value; the code must ship what it states."""

    @pytest.mark.parametrize(
        "symbol, paper, shipped, name", ROWS, ids=[row[3] for row in ROWS]
    )
    def test_table_row_matches_the_code(self, symbol, paper, shipped, name):
        # lower case: a LinkerConfig field's default; upper: a constant
        owner = repro.config if name.isupper() else DEFAULT_CONFIG
        assert getattr(owner, name) == value_of(shipped)

    def test_table_lists_table3_and_eq11(self):
        paper = {symbol: value for symbol, value, _, _ in ROWS}
        assert paper == {
            "α": "0.6", "β": "0.3", "γ": "0.1", "τ": "3 d",
            "θ1": str(PAPER_BURST_THRESHOLD), "θ2": "0.6", "λ": "—", "H": "—",
        }

    def test_paper_burst_threshold_constant(self):
        # Table 3 says theta_1 = 10; the runtime default is scaled to the
        # synthetic stream density (DESIGN.md §5) but the paper constant
        # stays available.
        assert PAPER_BURST_THRESHOLD == 10
        assert 0 < DEFAULT_CONFIG.burst_threshold <= PAPER_BURST_THRESHOLD

    def test_fuzzy_edit_distance(self):
        assert repro.config.FUZZY_EDIT_DISTANCE == 1


class TestOptionSet:
    def test_fields_are_pinned(self):
        """A new option is a new field here: it shows up in review.  A value
        no caller changes is a constant of ``repro.config`` instead."""
        assert tuple(f.name for f in dataclasses.fields(LinkerConfig)) == (
            "alpha",
            "beta",
            "gamma",
            "window",
            "burst_threshold",
            "influential_users",
            "influence_method",
            "recency_propagation",
            "deadline_ms",
            "influential_cache_size",
            "score_caching",
            "index_backend",
        )


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

    def test_bad_influence_method_rejected(self):
        with pytest.raises(ValueError, match="influence"):
            LinkerConfig(influence_method="pagerank")

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
