"""Tests for clock-period analysis."""

import numpy as np
import pytest

from repro.core.compiled import ensure_compiled_system
from repro.timing.period import sample_min_periods


class TestPeriodAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, small_design, small_samples):
        return sample_min_periods(small_design, constraint_samples=small_samples)

    def test_mean_close_to_nominal(self, analysis, small_design):
        nominal = ensure_compiled_system(small_design).nominal_min_period()
        assert analysis.mean == pytest.approx(nominal, rel=0.25)

    def test_sigma_reasonable_fraction_of_mean(self, analysis):
        assert 0.01 < analysis.std / analysis.mean < 0.2

    def test_target_period_ordering(self, analysis):
        assert analysis.target_period(0) < analysis.target_period(1) < analysis.target_period(2)

    def test_yield_at_targets_roughly_gaussian(self, analysis):
        # ~50 % at muT, ~84 % at muT + sigma, ~98 % at muT + 2 sigma
        y0 = analysis.yield_at(analysis.target_period(0), require_hold=False)
        y1 = analysis.yield_at(analysis.target_period(1), require_hold=False)
        y2 = analysis.yield_at(analysis.target_period(2), require_hold=False)
        assert 0.35 < y0 < 0.65
        assert 0.70 < y1 < 0.95
        assert y2 > 0.90
        assert y0 < y1 < y2

    def test_yield_monotone_in_period(self, analysis):
        periods = np.linspace(analysis.mean - 2 * analysis.std, analysis.mean + 3 * analysis.std, 8)
        yields = [analysis.yield_at(p) for p in periods]
        assert all(a <= b + 1e-9 for a, b in zip(yields, yields[1:], strict=False))

    def test_hold_mostly_feasible(self, analysis):
        assert analysis.hold_feasible.mean() > 0.9

    def test_quantile_period(self, analysis):
        assert analysis.quantile_period(0.9) >= analysis.quantile_period(0.5)

    def test_statistical_period_close_to_monte_carlo(self, small_design, analysis):
        ssta = ensure_compiled_system(small_design).statistical_period_form()
        assert ssta.mean == pytest.approx(analysis.mean, rel=0.1)

    def test_fresh_sampling_path(self, small_design):
        analysis = sample_min_periods(small_design, n_samples=50, rng=3)
        assert analysis.periods.shape == (50,)
