"""Tests for the compiled, array-native constraint system.

Per-edge scalar forms are the oracle: the propagation sweep's pair forms
combined with the capture flip-flops' setup and hold forms through
:class:`CanonicalForm` arithmetic.  The compiled system's stacks,
periods and samples must agree with them.
"""

import numpy as np
import pytest

import repro.timing.constraints as constraints
import repro.timing.propagate as propagate
from repro.circuit.suite import build_suite_circuit
from repro.core.compiled import CompiledConstraintSystem, ensure_compiled_system
from repro.timing.constraints import extract_constraint_graph
from repro.timing.graph import TimingGraph
from repro.timing.skew import apply_skews, hold_aware_random_skews
from repro.variation.sampling import MonteCarloSampler


@pytest.fixture(scope="module")
def compiled(small_system):
    return small_system


@pytest.fixture(scope="module")
def edge_oracle(small_design):
    """Per-edge scalar ``(launch, capture, setup, hold, skew difference)``
    of the small design, in the sweep's pair order."""
    graph = TimingGraph(small_design)
    pairs = propagate.all_ff_pair_delay_forms(graph)
    names = list(small_design.netlist.flip_flops)
    skew = small_design.clock_skew.skew
    edges = []
    for k in range(len(pairs.launch)):
        launch, capture = names[pairs.launch[k]], names[pairs.capture[k]]
        edges.append(
            (
                launch,
                capture,
                pairs.max_forms.form(k) + graph.setup_form(capture),
                pairs.min_forms.form(k) - graph.hold_form(capture),
                skew(capture) - skew(launch),
            )
        )
    return edges


class TestCompilation:
    def test_shapes_match_graph(self, small_design, compiled, edge_oracle):
        assert compiled.n_edges == len(edge_oracle) > 0
        assert compiled.n_ffs == small_design.netlist.n_flip_flops
        assert compiled.ff_names == list(small_design.netlist.flip_flops)
        names = compiled.ff_names
        assert [names[i] for i in compiled.edge_launch] == [e[0] for e in edge_oracle]
        assert [names[j] for j in compiled.edge_capture] == [e[1] for e in edge_oracle]
        assert compiled.setup_forms.n_forms == compiled.n_edges
        assert compiled.hold_forms.n_forms == compiled.n_edges

    def test_stacked_forms_match_edge_quantities(self, compiled, edge_oracle):
        """Means and sensitivities are the same additions bit for bit; the
        independent terms differ at most in the last bits (``np.hypot``
        against ``math.hypot``)."""
        for k, (_, _, setup, hold, _) in enumerate(edge_oracle):
            for stack, form in ((compiled.setup_forms, setup), (compiled.hold_forms, hold)):
                assert stack.means[k] == form.mean
                assert np.array_equal(stack.sensitivities[k], form.sensitivities)
                assert abs(stack.independent[k] - form.independent) <= 1e-12

    def test_topology_view(self, compiled):
        topology = compiled.topology
        assert topology.ff_names == compiled.ff_names
        assert np.array_equal(topology.edge_launch, compiled.edge_launch)
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
    """A fresh small suite design whose skews are replaced after the build,
    with or without the old system's fingerprint taken in between."""
    design = build_suite_circuit("s9234", scale=0.05, seed=1)
    system = ensure_compiled_system(design)
    before = system.fingerprint() if compile_first else None
    skews = hold_aware_random_skews(system, 3.0, rng=5)
    apply_skews(system, skews)
    return design, skews, before


class TestEnsureCache:
    def test_cached_on_design(self, small_design):
        small_design.cached_compiled_system = None
        first = ensure_compiled_system(small_design)
        second = ensure_compiled_system(small_design)
        assert first is second
        assert isinstance(first, CompiledConstraintSystem)

    def test_apply_skews_after_a_compile_compiles_the_new_skews(self):
        design, skews, before = _reskewed_design(compile_first=True)
        compiled = ensure_compiled_system(design)
        names = compiled.ff_names
        expected = [
            skews.skew(names[j]) - skews.skew(names[i])
            for i, j in zip(compiled.edge_launch, compiled.edge_capture, strict=True)
        ]
        assert np.array_equal(compiled.skew_difference, expected)
        # Warm worker state is keyed by the fingerprint, so it must move too.
        assert compiled.fingerprint() != before

    def test_build_and_flow_sweep_once(self, monkeypatch):
        """A suite build, a cache read and a flow run the Clark sweep once."""
        calls = []
        sweep = propagate.all_ff_pair_delay_forms

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(propagate, "all_ff_pair_delay_forms", counted)
        monkeypatch.setattr(constraints, "all_ff_pair_delay_forms", counted)
        from repro.core import BufferInsertionFlow, FlowConfig

        design = build_suite_circuit("s9234", scale=0.05, seed=1)
        ensure_compiled_system(design)
        config = FlowConfig(n_samples=60, n_eval_samples=60, seed=2, executor="serial")
        BufferInsertionFlow(design, config).run()
        assert len(calls) == 1

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
    def test_sample_bit_identical_to_graph_path(self, small_design, compiled):
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
        assert np.array_equal(via_compiled.skew_difference, compiled.skew_difference)

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
    def test_nominal_min_period_matches_graph(self, compiled, edge_oracle):
        oracle = max(setup.mean - skew for _, _, setup, _, skew in edge_oracle)
        assert compiled.nominal_min_period() == oracle


class TestFingerprint:
    def test_stable_and_cached(self, small_design, compiled):
        again = extract_constraint_graph(small_design)
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
