"""Tests for the compiled, array-native constraint system.

The per-edge scalar forms of the constraint graph are the oracle: the
compiled system's periods and samples must agree with them.
"""

from functools import reduce

import numpy as np
import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core.compiled import CompiledConstraintSystem, ensure_compiled_system
from repro.timing.constraints import ensure_constraint_graph
from repro.timing.skew import apply_skews, hold_aware_random_skews
from repro.variation.canonical import CanonicalForm
from repro.variation.sampling import MonteCarloSampler


@pytest.fixture(scope="module")
def compiled(small_constraint_graph):
    return CompiledConstraintSystem.from_constraint_graph(small_constraint_graph)


class TestCompilation:
    def test_shapes_match_graph(self, small_constraint_graph, compiled):
        graph = small_constraint_graph
        assert compiled.n_edges == graph.n_edges
        assert compiled.n_ffs == graph.n_flip_flops
        assert compiled.ff_names == graph.ff_names
        assert np.array_equal(compiled.edge_launch, graph.edge_launch_idx)
        assert np.array_equal(compiled.edge_capture, graph.edge_capture_idx)
        assert compiled.setup_forms.n_forms == graph.n_edges
        assert compiled.hold_forms.n_forms == graph.n_edges

    def test_stacked_forms_match_edge_quantities(self, small_constraint_graph, compiled):
        for k, edge in enumerate(small_constraint_graph.edges[:25]):
            setup = edge.setup_quantity
            hold = edge.hold_quantity
            assert abs(compiled.setup_forms.means[k] - setup.mean) < 1e-12
            assert np.max(np.abs(compiled.setup_forms.sensitivities[k] - setup.sensitivities)) < 1e-12
            assert abs(compiled.setup_forms.independent[k] - setup.independent) < 1e-9
            assert abs(compiled.hold_forms.means[k] - hold.mean) < 1e-12
            assert np.max(np.abs(compiled.hold_forms.sensitivities[k] - hold.sensitivities)) < 1e-12
            assert abs(compiled.hold_forms.independent[k] - hold.independent) < 1e-9

    def test_topology_view(self, small_constraint_graph, compiled):
        topology = compiled.topology
        assert topology.ff_names == small_constraint_graph.ff_names
        assert np.array_equal(topology.edge_launch, small_constraint_graph.edge_launch_idx)
        # Cached: the same object comes back.
        assert compiled.topology is topology

    def test_mismatched_lengths_rejected(self, compiled):
        with pytest.raises(ValueError):
            CompiledConstraintSystem(
                design=compiled.design,
                ff_names=compiled.ff_names,
                edge_launch=compiled.edge_launch[:-1],
                edge_capture=compiled.edge_capture,
                skew_difference=compiled.skew_difference,
                setup_forms=compiled.setup_forms,
                hold_forms=compiled.hold_forms,
            )


def _reskewed_design(compile_first):
    """A fresh small suite design whose skews are replaced after extraction,
    with or without a compile of the old skews in between."""
    design = build_suite_circuit("s9234", scale=0.05, seed=1)
    graph = ensure_constraint_graph(design)
    before = ensure_compiled_system(design).fingerprint() if compile_first else None
    apply_skews(graph, hold_aware_random_skews(graph, 3.0, rng=5))
    return design, graph, before


class TestEnsureCache:
    def test_cached_on_design(self, small_design):
        small_design.cached_compiled_system = None
        first = ensure_compiled_system(small_design)
        second = ensure_compiled_system(small_design)
        assert first is second
        assert isinstance(first, CompiledConstraintSystem)

    def test_apply_skews_after_a_compile_compiles_the_new_skews(self):
        design, graph, before = _reskewed_design(compile_first=True)
        compiled = ensure_compiled_system(design)
        assert np.array_equal(
            compiled.skew_difference, [e.skew_difference for e in graph.edges]
        )
        # Warm worker state is keyed by the fingerprint, so it must move too.
        assert compiled.fingerprint() != before

    def test_flow_reads_skews_applied_after_a_compile(self):
        from repro.core import BufferInsertionFlow, FlowConfig

        config = FlowConfig(n_samples=100, n_eval_samples=100, seed=4)
        stale, _, _ = _reskewed_design(compile_first=True)
        fresh, _, _ = _reskewed_design(compile_first=False)
        assert (
            BufferInsertionFlow(stale, config).run().mu_period
            == BufferInsertionFlow(fresh, config).run().mu_period
        )


class TestSampling:
    def test_sample_bit_identical_to_graph_path(self, small_design, small_constraint_graph, compiled):
        """One matmul per quantity equals evaluating every stacked row as a
        scalar form through a twin sampler's stream, bit for bit."""
        sampler_a = MonteCarloSampler(small_design.variation_model, rng=42)
        sampler_b = MonteCarloSampler(small_design.variation_model, rng=42)
        via_compiled = compiled.sample(sampler_a.sample(60), sampler=sampler_a)
        batch = sampler_b.sample(60)
        rows = range(compiled.n_edges)
        setup = sampler_b.evaluate([compiled.setup_forms.form(k) for k in rows], batch)
        hold = sampler_b.evaluate([compiled.hold_forms.form(k) for k in rows], batch)
        assert np.array_equal(via_compiled.setup_values, setup)
        assert np.array_equal(via_compiled.hold_values, hold)
        assert np.array_equal(
            via_compiled.skew_difference, [e.skew_difference for e in small_constraint_graph.edges]
        )

    def test_sample_shapes(self, small_design, compiled):
        sampler = MonteCarloSampler(small_design.variation_model, rng=5)
        samples = compiled.sample(sampler.sample(17), sampler=sampler)
        assert samples.n_edges == compiled.n_edges
        assert samples.n_samples == 17


class TestConfiguratorIntegration:
    def test_configurator_accepts_compiled_system(self, compiled):
        from repro.core.results import Buffer, BufferPlan
        from repro.tuning.configurator import PostSiliconConfigurator

        plan = BufferPlan(
            buffers=[Buffer(flip_flop=compiled.ff_names[0], lower=-1.0, upper=1.0, step=0.0)],
            target_period=10.0,
        )
        via_compiled = PostSiliconConfigurator(compiled, plan)
        via_topology = PostSiliconConfigurator(compiled.topology, plan)
        assert via_compiled.topology is compiled.topology
        assert via_compiled.n_variables == via_topology.n_variables
        assert via_compiled._scope == via_topology._scope


class TestPeriodQuantities:
    def test_nominal_min_period_matches_graph(self, small_constraint_graph, compiled):
        oracle = max(e.nominal_required_period() for e in small_constraint_graph.edges)
        assert compiled.nominal_min_period() == oracle

    def test_statistical_period_form_matches_graph(self, small_constraint_graph, compiled):
        """The array Clark fold agrees with the scalar Clark fold."""
        oracle = reduce(
            CanonicalForm.max,
            (e.setup_quantity - e.skew_difference for e in small_constraint_graph.edges),
        )
        via_compiled = compiled.statistical_period_form()
        assert via_compiled.mean == pytest.approx(oracle.mean, abs=1e-9)
        assert via_compiled.std == pytest.approx(oracle.std, abs=1e-9)


class TestFingerprint:
    def test_stable_and_cached(self, small_constraint_graph, compiled):
        again = CompiledConstraintSystem.from_constraint_graph(small_constraint_graph)
        assert compiled.fingerprint() == again.fingerprint()
        assert compiled.fingerprint() is compiled.fingerprint()  # cached string

    def test_changes_with_content(self, compiled):
        perturbed = CompiledConstraintSystem(
            design=compiled.design,
            ff_names=compiled.ff_names,
            edge_launch=compiled.edge_launch,
            edge_capture=compiled.edge_capture,
            skew_difference=compiled.skew_difference + 1.0,
            setup_forms=compiled.setup_forms,
            hold_forms=compiled.hold_forms,
        )
        assert perturbed.fingerprint() != compiled.fingerprint()
