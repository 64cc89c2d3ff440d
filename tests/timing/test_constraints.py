"""Tests for the sequential constraint graph."""

import numpy as np
import pytest

from repro.core.compiled import CompiledConstraintSystem
from repro.timing.constraints import (
    ConstraintSamples,
    SequentialEdge,
    ensure_constraint_graph,
    extract_constraint_graph,
)
from repro.variation.canonical import CanonicalForm
from repro.variation.sampling import MonteCarloSampler
from tests.circuit.nx_oracle import sequential_adjacency


@pytest.fixture(scope="module")
def compiled(small_constraint_graph):
    """The array system stacked from the small design's extracted graph."""
    return CompiledConstraintSystem.from_constraint_graph(small_constraint_graph)


def _edge(setup_mean=10.0, hold_mean=3.0, skew_launch=0.0, skew_capture=0.0):
    n = 2
    return SequentialEdge(
        launch="a",
        capture="b",
        max_delay=CanonicalForm(setup_mean - 2.0, np.zeros(n)),
        min_delay=CanonicalForm(hold_mean + 1.0, np.zeros(n)),
        setup=CanonicalForm(2.0, np.zeros(n)),
        hold=CanonicalForm(1.0, np.zeros(n)),
        skew_launch=skew_launch,
        skew_capture=skew_capture,
    )


class TestSequentialEdge:
    def test_quantities(self):
        edge = _edge()
        assert edge.setup_quantity.mean == pytest.approx(10.0)
        assert edge.hold_quantity.mean == pytest.approx(3.0)

    def test_skew_difference_sign(self):
        edge = _edge(skew_launch=1.0, skew_capture=3.0)
        assert edge.skew_difference == 2.0
        # Positive capture skew relaxes setup, tightens hold.
        assert edge.nominal_setup_bound(10.0) == pytest.approx(2.0)
        assert edge.nominal_hold_bound() == pytest.approx(1.0)

    def test_required_period(self):
        edge = _edge(skew_launch=0.5)
        assert edge.nominal_required_period() == pytest.approx(10.5)


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
        graph = extract_constraint_graph(tiny_design)
        adjacency = sequential_adjacency(tiny_design.netlist)
        assert graph.n_edges == adjacency.number_of_edges()

    def test_edge_indices_consistent(self, small_constraint_graph):
        graph = small_constraint_graph
        for k, edge in enumerate(graph.edges[:50]):
            assert graph.ff_names[graph.edge_launch_idx[k]] == edge.launch
            assert graph.ff_names[graph.edge_capture_idx[k]] == edge.capture

    def test_ensure_caches_on_design(self, tiny_design):
        tiny_design.cached_constraint_graph = None
        first = ensure_constraint_graph(tiny_design)
        second = ensure_constraint_graph(tiny_design)
        assert first is second

    def test_nominal_min_period_positive(self, compiled):
        assert compiled.nominal_min_period() > 0.0

    def test_statistical_period_form(self, compiled):
        form = compiled.statistical_period_form()
        assert form.mean >= compiled.nominal_min_period() - 1e-6
        assert form.std > 0.0

    def test_sampling_shapes(self, small_design, small_constraint_graph, compiled):
        sampler = MonteCarloSampler(small_design.variation_model, rng=1)
        batch = sampler.sample(40)
        samples = compiled.sample(batch, sampler=sampler)
        assert samples.n_edges == small_constraint_graph.n_edges
        assert samples.n_samples == 40

    def test_sample_setup_values_exceed_hold_values(self, small_samples):
        # d_max + s  must exceed  d_min - h on every edge and sample.
        assert np.all(small_samples.setup_values > small_samples.hold_values)

    def test_edges_of_ff(self, small_constraint_graph, compiled):
        ff = small_constraint_graph.ff_names[0]
        edges = compiled.topology.edges_of_ff[small_constraint_graph.ff_index[ff]]
        for k in edges:
            edge = small_constraint_graph.edges[k]
            assert ff in (edge.launch, edge.capture)

    def test_adjacency_covers_all_edges(self, small_constraint_graph, compiled):
        total = sum(len(edges) for edges in compiled.topology.edges_of_ff)
        assert total == 2 * small_constraint_graph.n_edges
