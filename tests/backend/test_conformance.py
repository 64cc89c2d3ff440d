"""Array-kernel conformance: the numpy ArrayForms kernels vs the scalar oracle.

The stacking of :class:`~repro.variation.arrayforms.ArrayForms`, the
Clark kernel :func:`~repro.variation.arrayforms.clark_max_coeffs`, the batched ``means + sens @ samples``
evaluation of ``MonteCarloSampler.evaluate_array`` and the level-ordered
propagation sweep built on them must agree with the scalar
:class:`~repro.variation.canonical.CanonicalForm` oracle to ``1e-12``,
and hand back arrays of the library they compute in.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.variation.arrayforms import ArrayForms, clark_max_coeffs
from repro.variation.canonical import CanonicalForm
from repro.variation.sampling import MonteCarloSampler, SampleBatch

TOL = 1e-12


@pytest.fixture(params=[np], ids=["numpy"])
def xp(request):
    """The array library the kernels compute in."""
    return request.param


def _random_forms(rng, n=10, sources=4):
    return [
        CanonicalForm(
            rng.normal(10.0, 2.0), rng.normal(size=sources) * 0.5, abs(rng.normal()) * 0.3
        )
        for _ in range(n)
    ]


def _sampler(seed=None):
    """The evaluation kernel's owner, over the 4 sources of ``_random_forms``."""
    return MonteCarloSampler(SimpleNamespace(n_shared_sources=4), rng=seed)


def _forms_close(form, oracle, tol=TOL):
    assert abs(form.mean - oracle.mean) <= tol
    assert np.max(np.abs(form.sensitivities - oracle.sensitivities)) <= tol
    assert abs(form.variance - oracle.variance) <= tol


class TestKernelOpsAgainstScalarOracle:
    def test_stack_roundtrip(self, xp, rng):
        forms = _random_forms(rng)
        stacked = ArrayForms.from_forms(forms)
        assert isinstance(stacked.coeffs, xp.ndarray)
        for i, form in enumerate(forms):
            _forms_close(stacked.form(i), form, tol=0.0)

    def test_clark_max_matches_oracle(self, xp, rng):
        forms_a = _random_forms(rng)
        forms_b = _random_forms(rng)
        a = ArrayForms.from_forms(forms_a)
        b = ArrayForms.from_forms(forms_b)
        out = ArrayForms(clark_max_coeffs(a.coeffs, b.coeffs))
        assert isinstance(out.coeffs, xp.ndarray)
        for i, (fa, fb) in enumerate(zip(forms_a, forms_b, strict=True)):
            _forms_close(out.form(i), fa.max(fb))

    def test_clark_max_degenerate_branch(self, xp):
        # Perfectly correlated equal-spread operands: theta == 0, the
        # kernel must pick the larger mean exactly.
        sens = xp.array([0.5, -0.25, 0.0])
        fa = CanonicalForm(3.0, sens, 0.0)
        fb = CanonicalForm(2.0, sens.copy(), 0.0)
        a = ArrayForms.from_forms([fa, fb])
        b = ArrayForms.from_forms([fb, fa])
        out = ArrayForms(clark_max_coeffs(a.coeffs, b.coeffs))
        _forms_close(out.form(0), fa, tol=0.0)
        _forms_close(out.form(1), fa, tol=0.0)

    def test_batched_evaluation(self, xp, rng):
        forms = _random_forms(rng, n=6)
        stacked = ArrayForms.from_forms(forms)
        samples = rng.normal(size=(4, 32))
        values = _sampler().evaluate_array(
            stacked, SampleBatch(samples), include_independent=False
        )
        assert isinstance(values, xp.ndarray)
        for i, form in enumerate(forms):
            assert np.max(np.abs(values[i] - form.evaluate(samples))) <= TOL

    def test_evaluation_with_independent_noise(self, xp, rng):
        forms = _random_forms(rng, n=5)
        stacked = ArrayForms.from_forms(forms)
        samples = rng.normal(size=(4, 16))
        values = _sampler(np.random.default_rng(8)).evaluate_array(stacked, SampleBatch(samples))
        noise = np.random.default_rng(8).standard_normal((5, 16))  # the sampler's draw
        assert isinstance(values, xp.ndarray)
        for i, form in enumerate(forms):
            assert np.max(np.abs(values[i] - form.evaluate(samples, noise[i]))) <= TOL


class TestPropagationSweepOnBackend:
    def test_sweep_agrees_with_scalar_path(self, xp, tiny_design):
        # Full level-ordered array sweep vs the per-launch scalar oracle.
        from repro.timing.graph import TimingGraph
        from repro.timing.propagate import all_ff_pair_delay_forms

        graph = TimingGraph(tiny_design)
        scalar = all_ff_pair_delay_forms(graph, method="scalar")
        swept = all_ff_pair_delay_forms(graph, method="array")
        assert np.array_equal(swept.launch, scalar.launch)
        assert np.array_equal(swept.capture, scalar.capture)
        assert isinstance(swept.max_forms.coeffs, xp.ndarray)
        for k in range(len(scalar.launch)):
            _forms_close(swept.max_forms.form(k), scalar.max_forms.form(k))
            _forms_close(swept.min_forms.form(k), scalar.min_forms.form(k))
