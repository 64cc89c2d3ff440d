"""Tests for constraint extraction and the per-sample bound arithmetic."""

import dataclasses

import numpy as np
import pytest

from repro.circuit.clockskew import ClockSkewMap
from repro.core.compiled import CompiledConstraintSystem, ensure_compiled_system
from repro.timing.constraints import ConstraintSamples, extract_constraint_graph
from repro.timing.graph import TimingGraph
from repro.timing.propagate import ff_pair_delay_forms
from repro.variation.arrayforms import ArrayForms
from repro.variation.canonical import canonical_max
from repro.variation.sampling import MonteCarloSampler
from tests.circuit.nx_oracle import sequential_adjacency


def assert_rows_match(stack: ArrayForms, k: int, form, tol: float = 1e-12) -> None:
    assert abs(stack.means[k] - form.mean) <= tol
    assert np.max(np.abs(stack.sensitivities[k] - form.sensitivities)) <= tol
    assert abs(stack.independent[k] - form.independent) <= tol


class TestEdgeQuantities:
    def test_quantities(self, tiny_design):
        """Every edge's setup quantity is its max delay plus the capture's
        setup form, its hold quantity its min delay minus the capture's
        hold form (per-edge scalar oracle from the reference path)."""
        system = extract_constraint_graph(tiny_design)
        graph = TimingGraph(tiny_design)
        names = system.ff_names
        scalar = {launch: ff_pair_delay_forms(graph, launch) for launch in names}
        assert system.n_edges > 0
        for k in range(system.n_edges):
            launch = names[system.edge_launch[k]]
            capture = names[system.edge_capture[k]]
            max_form, min_form = scalar[launch][capture]
            assert_rows_match(system.setup_forms, k, max_form + graph.setup_form(capture))
            assert_rows_match(system.hold_forms, k, min_form - graph.hold_form(capture))

    def test_skew_difference_sign(self, tiny_design):
        skews = {ff: float(i) for i, ff in enumerate(tiny_design.netlist.flip_flops)}
        skewed = dataclasses.replace(
            tiny_design, clock_skew=ClockSkewMap(skews), cached_compiled_system=None
        )
        system = extract_constraint_graph(skewed)
        names = system.ff_names
        for k in range(system.n_edges):
            launch, capture = names[system.edge_launch[k]], names[system.edge_capture[k]]
            assert system.skew_difference[k] == skews[capture] - skews[launch]
        # One edge with d_max + s = 10, d_min - h = 3 and k_j - k_i = 2:
        # positive capture skew relaxes setup, tightens hold.
        samples = ConstraintSamples(np.array([[10.0]]), np.array([[3.0]]), np.array([2.0]))
        assert samples.setup_bounds(10.0)[0, 0] == pytest.approx(2.0)
        assert samples.hold_bounds()[0, 0] == pytest.approx(1.0)

    def test_required_period(self):
        # One edge a -> b with d_max + s = 10 and k_b - k_a = -0.5.
        system = CompiledConstraintSystem(
            design=None,
            ff_names=["a", "b"],
            edge_launch=[0],
            edge_capture=[1],
            skew_difference=[-0.5],
            setup_forms=ArrayForms([[10.0, 0.0, 0.0, 0.0]]),
            hold_forms=ArrayForms([[3.0, 0.0, 0.0, 0.0]]),
        )
        assert system.nominal_min_period() == pytest.approx(10.5)


class TestConstraintSamples:
    @pytest.fixture()
    def samples(self):
        setup = np.array([[10.0, 12.0], [8.0, 9.0]])
        hold = np.array([[1.0, -0.5], [2.0, 2.0]])
        skew_diff = np.array([0.0, 1.0])
        return ConstraintSamples(setup, hold, skew_diff)

    def test_setup_bounds(self, samples):
        bounds = samples.setup_bounds(11.0)
        assert bounds[0, 0] == pytest.approx(1.0)
        assert bounds[1, 1] == pytest.approx(3.0)

    def test_hold_bounds(self, samples):
        bounds = samples.hold_bounds()
        assert bounds[0, 1] == pytest.approx(-0.5)
        assert bounds[1, 0] == pytest.approx(1.0)

    def test_min_period_per_sample(self, samples):
        periods = samples.min_setup_period_per_sample()
        assert periods[0] == pytest.approx(10.0)
        assert periods[1] == pytest.approx(12.0)

    def test_hold_feasible_per_sample(self, samples):
        feasible = samples.hold_feasible_per_sample()
        assert feasible.tolist() == [True, False]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSamples(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2))


class TestExtraction:
    def test_edges_match_sequential_adjacency(self, tiny_design):
        system = extract_constraint_graph(tiny_design)
        adjacency = sequential_adjacency(tiny_design.netlist)
        assert system.n_edges == adjacency.number_of_edges()

    def test_edge_indices_consistent(self, small_design, small_system):
        names = small_system.ff_names
        pairs = [
            (names[i], names[j])
            for i, j in zip(small_system.edge_launch, small_system.edge_capture, strict=True)
        ]
        assert set(pairs) == set(sequential_adjacency(small_design.netlist).edges())
        assert len(set(pairs)) == len(pairs)
        # Launch-major: the launches come in flip-flop order.
        assert np.all(np.diff(small_system.edge_launch) >= 0)

    def test_ensure_caches_on_design(self, tiny_design):
        tiny_design.cached_compiled_system = None
        first = ensure_compiled_system(tiny_design)
        second = ensure_compiled_system(tiny_design)
        assert first is second
        assert isinstance(first, CompiledConstraintSystem)

    def test_nominal_min_period_positive(self, small_system):
        assert small_system.nominal_min_period() > 0.0

    def test_statistical_period_form(self, small_system):
        # The canonical (SSTA) form of the minimum period: Clark's max
        # over every edge of its setup quantity minus its skew difference.
        form = canonical_max(
            small_system.setup_forms.form(k) - float(small_system.skew_difference[k])
            for k in range(small_system.n_edges)
        )
        assert form.mean >= small_system.nominal_min_period() - 1e-6
        assert form.std > 0.0

    def test_sampling_shapes(self, small_design, small_system):
        sampler = MonteCarloSampler(small_design.variation_model, rng=1)
        batch = sampler.sample(40)
        samples = small_system.sample(batch, sampler=sampler)
        assert samples.n_edges == small_system.n_edges
        assert samples.n_samples == 40

    def test_sample_setup_values_exceed_hold_values(self, small_samples):
        # d_max + s  must exceed  d_min - h on every edge and sample.
        assert np.all(small_samples.setup_values > small_samples.hold_values)

    def test_edges_of_ff(self, small_system):
        ff = 0
        edges = small_system.topology.edges_of_ff[ff]
        assert edges
        for k in edges:
            assert ff in (small_system.edge_launch[k], small_system.edge_capture[k])

    def test_adjacency_covers_all_edges(self, small_system):
        total = sum(len(edges) for edges in small_system.topology.edges_of_ff)
        assert total == 2 * small_system.n_edges
