"""Tests for repro.variation.sampling."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.variation.arrayforms import ArrayForms
from repro.variation.canonical import CanonicalForm
from repro.variation.model import VariationModel
from repro.variation.sampling import MonteCarloSampler, SampleBatch


@pytest.fixture()
def model():
    return VariationModel(grid_rows=2, grid_cols=2)


class TestSampleBatch:
    def test_shape_properties(self, model):
        sampler = MonteCarloSampler(model, rng=0)
        batch = sampler.sample(50)
        assert batch.n_samples == 50
        assert batch.n_sources == model.n_shared_sources

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SampleBatch(np.zeros(5))

    def test_rejects_non_positive_count(self, model):
        with pytest.raises(ValueError):
            MonteCarloSampler(model, rng=0).sample(0)


class TestEvaluate:
    def test_deterministic_given_seed(self, model):
        forms = [model.delay_form(5.0, 10, 10).form for _ in range(3)]
        a = MonteCarloSampler(model, rng=3)
        b = MonteCarloSampler(model, rng=3)
        va = a.evaluate(forms, a.sample(100))
        vb = b.evaluate(forms, b.sample(100))
        assert np.allclose(va, vb)

    def test_statistics_match_canonical_moments(self, model):
        form = model.delay_form(10.0, 20, 20).form
        sampler = MonteCarloSampler(model, rng=1)
        batch = sampler.sample(40000)
        values = sampler.evaluate([form], batch)[0]
        assert math.isclose(values.mean(), form.mean, rel_tol=0.01)
        assert math.isclose(values.std(), form.std, rel_tol=0.05)

    def test_empty_forms(self, model):
        sampler = MonteCarloSampler(model, rng=1)
        values = sampler.evaluate([], sampler.sample(10))
        assert values.shape == (0, 10)

    def test_mismatched_batch_rejected(self, model):
        other = VariationModel(grid_rows=3, grid_cols=3)
        sampler = MonteCarloSampler(model, rng=1)
        batch = MonteCarloSampler(other, rng=1).sample(5)
        with pytest.raises(ValueError):
            sampler.evaluate([model.constant_form(1.0)], batch)

    def test_exclude_independent_term(self, model):
        form = CanonicalForm(1.0, np.zeros(model.n_shared_sources), independent=10.0)
        sampler = MonteCarloSampler(model, rng=1)
        batch = sampler.sample(100)
        values = sampler.evaluate([form], batch, include_independent=False)[0]
        assert np.allclose(values, 1.0)

    def test_correlated_forms_share_samples(self, model):
        # Two forms with identical sensitivities must produce identical samples
        # (up to their independent terms, which are zero here).
        form = model.delay_form(10.0, 20, 20).form
        clone = CanonicalForm(form.mean, form.sensitivities.copy(), 0.0)
        sampler = MonteCarloSampler(model, rng=1)
        batch = sampler.sample(200)
        values = sampler.evaluate([clone, clone], batch)
        assert np.allclose(values[0], values[1])


def expression_evaluate(forms, batch, include_independent, generator):
    """The out-of-place expression :meth:`MonteCarloSampler.evaluate_array`
    accumulates in place, kept as its bit-for-bit oracle."""
    values = forms.means[:, None] + forms.sensitivities @ batch.shared
    if include_independent and np.any(forms.independent != 0.0):
        noise = generator.standard_normal((forms.n_forms, batch.n_samples))
        values = values + forms.independent[:, None] * noise
    return values


def random_forms(seed, n_forms, n_sources, independent="mixed"):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n_forms, n_sources + 2))
    coeffs[:, 0] *= 50.0
    coeffs[:, -1] = np.abs(coeffs[:, -1])
    if independent == "none":
        coeffs[:, -1] = 0.0
    elif independent == "mixed":
        coeffs[::3, -1] = 0.0
    return ArrayForms(coeffs)


class TestEvaluateArrayInPlace:
    """``evaluate_array`` equals the out-of-place expression bit for bit."""

    @pytest.mark.parametrize("independent", ["all", "mixed", "none"])
    @pytest.mark.parametrize("include_independent", [True, False])
    def test_matches_the_expression(self, model, independent, include_independent):
        forms = random_forms(5, 64, model.n_shared_sources, independent)
        sampler = MonteCarloSampler(model, rng=np.random.default_rng(9))
        reference = np.random.default_rng(9)
        batch = sampler.sample(300)
        reference.standard_normal((model.n_shared_sources, 300))  # the batch's draw
        coeffs, shared = forms.coeffs.copy(), batch.shared.copy()

        values = sampler.evaluate_array(forms, batch, include_independent)
        expected = expression_evaluate(forms, batch, include_independent, reference)
        assert np.array_equal(values, expected)
        # Inputs untouched, and the random stream advanced exactly as far.
        assert np.array_equal(forms.coeffs, coeffs)
        assert np.array_equal(batch.shared, shared)
        next_draw = reference.standard_normal((model.n_shared_sources, 4))
        assert np.array_equal(sampler.sample(4).shared, next_draw)

    @pytest.mark.parametrize("independent", ["all", "none"])
    def test_zero_sources(self, independent):
        forms = random_forms(2, 12, 0, independent)
        sampler = MonteCarloSampler(SimpleNamespace(n_shared_sources=0))
        batch = SampleBatch(np.zeros((0, 40)))
        generator, reference = np.random.default_rng(4), np.random.default_rng(4)

        values = sampler.evaluate_array(forms, batch, rng=generator)
        expected = expression_evaluate(forms, batch, True, reference)
        assert values.shape == (12, 40)
        assert np.array_equal(values, expected)
        assert np.array_equal(generator.standard_normal(3), reference.standard_normal(3))
