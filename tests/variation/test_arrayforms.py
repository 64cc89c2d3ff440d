"""Tests for repro.variation.arrayforms (stacked canonical forms).

The array path must agree with the scalar :class:`CanonicalForm` path to
``1e-12`` on every operation, including the Clark max edge cases: zero
variance operands, perfectly correlated forms (rho -> 1) and equal-mean
ties.
"""

import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.timing.graph import TimingGraph
from repro.timing.propagate import _ABSENT_MEAN, all_ff_pair_delay_forms
from repro.variation.arrayforms import ArrayForms, clark_max_coeffs, clark_max_many
from repro.variation.canonical import CanonicalForm
from repro.variation.sampling import MonteCarloSampler, SampleBatch

TOL = 1e-12


def make(mean, sens, indep=0.0):
    return CanonicalForm(mean, np.array(sens, dtype=float), indep)


def assert_forms_close(a: CanonicalForm, b: CanonicalForm, tol: float = TOL):
    assert abs(a.mean - b.mean) <= tol
    assert np.max(np.abs(a.sensitivities - b.sensitivities)) <= tol
    # Compare the independent term through the total variance: near
    # rho -> 1 the term itself is a catastrophically cancelled sqrt, so
    # coefficient-level agreement is ill-posed while the distribution
    # (mean/variance) stays well-conditioned.
    assert abs(a.variance - b.variance) <= tol


@pytest.fixture()
def random_forms(rng):
    return [
        CanonicalForm(rng.normal(10.0, 2.0), rng.normal(size=4) * 0.5, abs(rng.normal()) * 0.3)
        for _ in range(12)
    ]


class TestConstruction:
    def test_from_forms_roundtrip(self, random_forms):
        stacked = ArrayForms.from_forms(random_forms)
        assert stacked.n_forms == len(random_forms)
        assert stacked.n_sources == 4
        for i, form in enumerate(random_forms):
            assert_forms_close(stacked.form(i), form, tol=0.0)

    def test_empty_needs_n_sources(self):
        with pytest.raises(ValueError):
            ArrayForms.from_forms([])
        empty = ArrayForms.from_forms([], n_sources=3)
        assert empty.n_forms == 0 and empty.n_sources == 3

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            ArrayForms.from_forms([make(0.0, [1.0]), make(0.0, [1.0, 2.0])])

    def test_constants_and_zeros(self):
        const = ArrayForms.constants([1.0, -2.0], n_sources=3)
        assert np.allclose(const.means, [1.0, -2.0])
        assert np.all(const.sensitivities == 0.0)
        assert np.all(const.independent == 0.0)
        assert ArrayForms.zeros(5, 2).coeffs.shape == (5, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ArrayForms(np.zeros(3))


class TestArithmetic:
    def test_add_matches_scalar(self, random_forms):
        half = len(random_forms) // 2
        a = ArrayForms.from_forms(random_forms[:half])
        b = ArrayForms.from_forms(random_forms[half : 2 * half])
        out = a.add(b)
        for i in range(half):
            assert_forms_close(out.form(i), random_forms[i] + random_forms[half + i])

    def test_subtract_matches_scalar(self, random_forms):
        half = len(random_forms) // 2
        a = ArrayForms.from_forms(random_forms[:half])
        b = ArrayForms.from_forms(random_forms[half : 2 * half])
        out = a.subtract(b)
        for i in range(half):
            assert_forms_close(out.form(i), random_forms[i] - random_forms[half + i])

    def test_add_broadcasts_single_form(self, random_forms):
        stacked = ArrayForms.from_forms(random_forms)
        out = stacked.add(random_forms[0])
        for i, form in enumerate(random_forms):
            assert_forms_close(out.form(i), form + random_forms[0])

    def test_scale_matches_scalar(self, random_forms):
        stacked = ArrayForms.from_forms(random_forms)
        out = stacked.scale(-2.5)
        for i, form in enumerate(random_forms):
            assert_forms_close(out.form(i), form * -2.5)

    def test_negate_matches_scalar(self, random_forms):
        out = ArrayForms.from_forms(random_forms).negate()
        for i, form in enumerate(random_forms):
            assert_forms_close(out.form(i), -form)

    def test_variances_match_scalar(self, random_forms):
        stacked = ArrayForms.from_forms(random_forms)
        for i, form in enumerate(random_forms):
            assert abs(stacked.variances()[i] - form.variance) <= TOL
            assert abs(stacked.stds()[i] - form.std) <= TOL

    def test_incompatible_sources_rejected(self):
        a = ArrayForms.zeros(2, 3)
        with pytest.raises(ValueError):
            a.add(ArrayForms.zeros(2, 4))
        with pytest.raises(ValueError):
            a.add(make(0.0, [1.0]))


class TestClark:
    def test_clark_max_matches_scalar(self, random_forms):
        half = len(random_forms) // 2
        a = ArrayForms.from_forms(random_forms[:half])
        b = ArrayForms.from_forms(random_forms[half : 2 * half])
        out = a.clark_max(b)
        for i in range(half):
            assert_forms_close(out.form(i), random_forms[i].max(random_forms[half + i]))

    def test_clark_min_matches_scalar(self, random_forms):
        half = len(random_forms) // 2
        a = ArrayForms.from_forms(random_forms[:half])
        b = ArrayForms.from_forms(random_forms[half : 2 * half])
        out = a.clark_min(b)
        for i in range(half):
            assert_forms_close(out.form(i), random_forms[i].min(random_forms[half + i]))

    def test_clark_max_many_folds_left(self, random_forms):
        third = len(random_forms) // 3
        stacks = [
            ArrayForms.from_forms(random_forms[k * third : (k + 1) * third]) for k in range(3)
        ]
        out = clark_max_many(stacks)
        for i in range(third):
            expected = random_forms[i].max(random_forms[third + i]).max(random_forms[2 * third + i])
            assert_forms_close(out.form(i), expected)

    def test_clark_max_many_requires_input(self):
        with pytest.raises(ValueError):
            clark_max_many([])

    # ------------------------------------------------------------------
    # Edge cases: scalar and array paths must agree to 1e-12
    # ------------------------------------------------------------------
    @pytest.mark.parametrize(
        "a,b",
        [
            # Zero-variance operands (deterministic values).
            (make(1.0, [0.0, 0.0]), make(2.0, [0.0, 0.0])),
            (make(2.0, [0.0, 0.0]), make(1.0, [0.0, 0.0])),
            # One deterministic, one random.
            (make(1.0, [0.0, 0.0]), make(1.0, [0.5, 0.2], 0.1)),
            # Perfectly correlated (rho -> 1), different means.
            (make(1.0, [0.6, 0.8]), make(2.0, [0.6, 0.8])),
            # Perfectly correlated AND equal-mean tie (degenerate branch).
            (make(3.0, [0.6, 0.8]), make(3.0, [0.6, 0.8])),
            # Nearly perfectly correlated (theta just above the cutoff).
            (make(1.0, [0.6, 0.8]), make(1.0, [0.6 + 1e-7, 0.8])),
            # Equal means, uncorrelated.
            (make(5.0, [1.0, 0.0]), make(5.0, [0.0, 1.0])),
            # Perfectly anti-correlated.
            (make(0.0, [1.0, 0.0]), make(0.0, [-1.0, 0.0])),
            # Independent-only spread (shared parts identical).
            (make(1.0, [0.3, 0.3], 0.5), make(1.0, [0.3, 0.3], 0.2)),
        ],
    )
    def test_edge_cases_scalar_vs_array(self, a, b):
        scalar_max = a.max(b)
        scalar_min = a.min(b)
        stack_a = ArrayForms.from_forms([a])
        stack_b = ArrayForms.from_forms([b])
        assert_forms_close(stack_a.clark_max(stack_b).form(0), scalar_max)
        assert_forms_close(stack_a.clark_min(stack_b).form(0), scalar_min)

    def test_degenerate_tie_picks_larger_mean(self):
        # Identical spread, different means: Clark degenerates and both
        # paths must return the larger-mean operand verbatim.
        a = make(4.0, [0.6, 0.8])
        b = make(2.0, [0.6, 0.8])
        out = ArrayForms.from_forms([a]).clark_max(ArrayForms.from_forms([b])).form(0)
        assert_forms_close(out, a, tol=0.0)
        scalar = a.max(b)
        assert_forms_close(out, scalar, tol=0.0)

    def test_kernel_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayForms.zeros(2, 3).clark_max(ArrayForms.zeros(3, 3))

    def test_kernel_raw_arrays(self):
        a = make(1.0, [0.5, 0.1], 0.2)
        b = make(1.2, [0.4, 0.3], 0.1)
        out = clark_max_coeffs(
            ArrayForms.from_forms([a]).coeffs, ArrayForms.from_forms([b]).coeffs
        )
        expected = a.max(b)
        assert abs(out[0, 0] - expected.mean) <= TOL
        assert np.max(np.abs(out[0, 1:-1] - expected.sensitivities)) <= TOL
        assert abs(out[0, -1] - expected.independent) <= TOL


class TestAbsentSentinel:
    """The propagation sweep merges an arrival row with the sentinel row
    (mean ``_ABSENT_MEAN``, zero spread) wherever a predecessor lacks a
    launch flip-flop.  On the sweep's own rows the merge keeps the mean
    and sensitivities bit for bit, but recomputes the independent term
    from the second moment, which moves it in the last bits."""

    @pytest.fixture(scope="class")
    def arrival_rows(self, tiny_design):
        pairs = all_ff_pair_delay_forms(TimingGraph(tiny_design))
        return ArrayForms.from_forms([f for mx, mn in pairs.values() for f in (mx, -mn)]).coeffs

    @staticmethod
    def sentinel_like(rows):
        sentinel = np.zeros_like(rows)
        sentinel[:, 0] = _ABSENT_MEAN
        return sentinel

    @pytest.mark.parametrize("real_first", [True, False])
    def test_merge_keeps_real_row(self, arrival_rows, real_first):
        sentinel = self.sentinel_like(arrival_rows)
        if real_first:
            out = clark_max_coeffs(arrival_rows, sentinel)
        else:
            out = clark_max_coeffs(sentinel, arrival_rows)
        assert np.array_equal(out[:, :-1], arrival_rows[:, :-1])
        independent = arrival_rows[:, -1]
        assert np.all(independent > 0.0)
        assert np.max(np.abs(out[:, -1] - independent) / independent) <= TOL

    def test_sentinel_with_sentinel_is_sentinel(self, arrival_rows):
        sentinel = self.sentinel_like(arrival_rows)
        assert np.array_equal(clark_max_coeffs(sentinel, sentinel), sentinel)


def four_source_sampler(seed=None):
    """A sampler over a 4-source model (the width of ``random_forms``)."""
    return MonteCarloSampler(SimpleNamespace(n_shared_sources=4), rng=seed)


class TestEvaluate:
    """Stacks are evaluated by ``MonteCarloSampler.evaluate_array``; every
    row must match the scalar form's own evaluation."""

    def test_batch_evaluation_matches_scalar(self, random_forms, rng):
        stacked = ArrayForms.from_forms(random_forms)
        samples = rng.standard_normal((4, 50))
        values = four_source_sampler().evaluate_array(
            stacked, SampleBatch(samples), include_independent=False
        )
        for i, form in enumerate(random_forms):
            assert np.allclose(values[i], form.evaluate(samples), atol=TOL)

    def test_independent_draws_applied(self, random_forms, rng):
        stacked = ArrayForms.from_forms(random_forms)
        samples = rng.standard_normal((4, 20))
        values = four_source_sampler(np.random.default_rng(6)).evaluate_array(
            stacked, SampleBatch(samples)
        )
        noise = np.random.default_rng(6).standard_normal((stacked.n_forms, 20))
        for i, form in enumerate(random_forms):
            assert np.allclose(values[i], form.evaluate(samples, noise[i]), atol=TOL)

    def test_shape_validation(self, random_forms):
        sampler = four_source_sampler(0)
        with pytest.raises(ValueError, match="sample batch"):
            sampler.evaluate_array(
                ArrayForms.from_forms(random_forms), SampleBatch(np.zeros((3, 10)))
            )
        three_sources = ArrayForms.from_forms([make(1.0, [0.1, 0.2, 0.3])])
        with pytest.raises(ValueError, match="forms do not match"):
            sampler.evaluate_array(three_sources, SampleBatch(np.zeros((4, 10))))


# Sweeps the tiny design (the conftest fixture, rebuilt) with every scipy
# import blocked and prints the worst deviation from the scalar oracle.
_NO_SCIPY_SWEEP = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # every scipy import now raises ImportError

    import numpy as np

    from repro.circuit.design import CircuitDesign
    from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
    from repro.circuit.library import default_library
    from repro.timing.graph import TimingGraph
    from repro.timing.propagate import all_ff_pair_delay_forms
    from repro.variation import arrayforms

    assert not isinstance(arrayforms._erf, np.ufunc), "scipy's erf was imported"
    library = default_library()
    config = GeneratorConfig(n_flip_flops=12, n_gates=150, max_depth=6, min_depth=2)
    netlist = generate_sequential_circuit(config, library=library, rng=7, name="tiny")
    design = CircuitDesign.from_netlist(
        netlist, library=library, clock_skew_magnitude=0.0, rng=7
    )
    graph = TimingGraph(design)
    scalar = all_ff_pair_delay_forms(graph, method="scalar")
    swept = all_ff_pair_delay_forms(graph, method="array")
    assert scalar and set(swept) == set(scalar)
    worst = 0.0
    for pair, oracle in scalar.items():
        for got, want in zip(swept[pair], oracle, strict=True):
            worst = max(
                worst,
                abs(got.mean - want.mean),
                abs(got.variance - want.variance),
                float(np.max(np.abs(got.sensitivities - want.sensitivities))),
            )
    print(repr(worst))
    """
)


class TestErfFallback:
    def test_sweep_without_scipy_matches_scalar_oracle(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SWEEP],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= TOL
