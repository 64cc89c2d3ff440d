"""Tests for repro.variation.canonical (first-order canonical forms)."""

import math

import numpy as np
import pytest

from repro.variation.canonical import (
    CanonicalForm,
    canonical_max,
    canonical_min,
)


def make(mean, sens, indep=0.0):
    return CanonicalForm(mean, np.array(sens, dtype=float), indep)


class TestMoments:
    def test_constant_has_zero_std(self):
        form = CanonicalForm.constant(5.0, 3)
        assert form.mean == 5.0
        assert form.std == 0.0

    def test_variance_combines_shared_and_independent(self):
        form = make(1.0, [3.0, 4.0], indep=12.0)
        assert math.isclose(form.variance, 9 + 16 + 144)

    def test_quantile_of_gaussian(self):
        form = make(10.0, [2.0])
        # +1 sigma quantile ~ 0.8413
        assert math.isclose(form.quantile(0.841344746), 12.0, rel_tol=1e-3)

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            make(0.0, [1.0]).quantile(1.5)


class TestArithmetic:
    def test_add_means_and_sensitivities(self):
        a = make(1.0, [1.0, 0.0], 3.0)
        b = make(2.0, [0.0, 2.0], 4.0)
        c = a + b
        assert c.mean == 3.0
        assert np.allclose(c.sensitivities, [1.0, 2.0])
        assert math.isclose(c.independent, 5.0)  # hypot(3, 4)

    def test_add_scalar(self):
        a = make(1.0, [1.0]) + 2.5
        assert a.mean == 3.5

    def test_subtract_keeps_independent_positive(self):
        a = make(5.0, [1.0], 3.0)
        b = make(2.0, [1.0], 4.0)
        c = a - b
        assert c.mean == 3.0
        assert np.allclose(c.sensitivities, [0.0])
        assert c.independent == 5.0

    def test_scale(self):
        a = make(2.0, [1.0, -1.0], 2.0) * -2.0
        assert a.mean == -4.0
        assert np.allclose(a.sensitivities, [-2.0, 2.0])
        assert a.independent == 4.0

    def test_incompatible_sources_raise(self):
        with pytest.raises(ValueError):
            make(0.0, [1.0]) + make(0.0, [1.0, 2.0])


class TestStatisticalMax:
    def test_max_of_identical_forms_is_same(self):
        a = make(3.0, [1.0, 2.0], 0.5)
        m = a.max(make(3.0, [1.0, 2.0], 0.5))
        assert math.isclose(m.mean, a.mean, rel_tol=1e-6) or m.mean >= a.mean

    def test_max_dominated_returns_dominant(self):
        a = make(10.0, [0.1])
        b = make(0.0, [0.1])
        m = a.max(b)
        assert math.isclose(m.mean, 10.0, rel_tol=1e-3)

    def test_max_mean_at_least_each_operand(self):
        a = make(3.0, [1.0, 0.5])
        b = make(2.8, [0.2, 1.5])
        m = a.max(b)
        assert m.mean >= a.mean - 1e-9
        assert m.mean >= b.mean - 1e-9

    def test_max_matches_monte_carlo(self, rng):
        a = make(10.0, [1.0, 0.0], 0.5)
        b = make(9.0, [0.0, 2.0], 0.5)
        m = a.max(b)
        z = rng.standard_normal((2, 200000))
        ia = rng.standard_normal(200000)
        ib = rng.standard_normal(200000)
        sa = a.evaluate(z, ia)
        sb = b.evaluate(z, ib)
        empirical = np.maximum(sa, sb)
        assert math.isclose(m.mean, empirical.mean(), rel_tol=0.02)
        assert math.isclose(m.std, empirical.std(), rel_tol=0.10)

    def test_min_is_negated_max(self):
        a = make(3.0, [1.0])
        b = make(2.0, [2.0])
        assert math.isclose(a.min(b).mean, -((-a).max(-b)).mean)


class TestEvaluate:
    def test_evaluate_shape_and_mean(self, rng):
        form = make(5.0, [1.0, 2.0], 1.0)
        z = rng.standard_normal((2, 50000))
        indep = rng.standard_normal(50000)
        values = form.evaluate(z, indep)
        assert values.shape == (50000,)
        assert math.isclose(values.mean(), 5.0, abs_tol=0.05)
        assert math.isclose(values.std(), form.std, rel_tol=0.03)

    def test_evaluate_rejects_wrong_shape(self):
        form = make(0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            form.evaluate(np.zeros((3, 10)))

    def test_evaluate_without_independent(self):
        form = make(1.0, [0.0], 5.0)
        values = form.evaluate(np.zeros((1, 4)))
        assert np.allclose(values, 1.0)


class TestAggregates:
    def test_canonical_max_requires_one(self):
        with pytest.raises(ValueError):
            canonical_max([])

    def test_canonical_min_below_components(self):
        forms = [make(3.0, [1.0]), make(5.0, [1.0])]
        assert canonical_min(forms).mean <= 3.0 + 1e-9

    def test_correlation_bounds(self):
        a = make(0.0, [1.0, 0.0])
        b = make(0.0, [1.0, 0.0])
        c = make(0.0, [0.0, 1.0])
        assert math.isclose(a.correlation(b), 1.0)
        assert math.isclose(a.correlation(c), 0.0)
