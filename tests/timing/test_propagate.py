"""Tests for arrival-time propagation (nominal and canonical)."""

import numpy as np
import pytest

from repro.circuit.design import CircuitDesign
from repro.circuit.netlist import Netlist
from repro.timing.graph import TimingGraph
from repro.timing.propagate import (
    all_ff_pair_delay_forms,
    ff_pair_delay_forms,
    nominal_arrival_times,
)
from tests.circuit.nx_oracle import sequential_adjacency


def assert_same_pairs(scalar, array, tol=1e-12):
    """Same pairs in the same order, every coefficient within ``tol``."""
    assert np.array_equal(array.launch, scalar.launch)
    assert np.array_equal(array.capture, scalar.capture)
    for got, want in ((array.max_forms, scalar.max_forms), (array.min_forms, scalar.min_forms)):
        assert got.coeffs.shape == want.coeffs.shape
        if want.n_forms:
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= tol


def chain_netlist() -> Netlist:
    """ff1 -> g1 -> g2 -> ff2 plus a short parallel branch ff1 -> g3 -> ff2."""
    netlist = Netlist("chain")
    netlist.add_flip_flop("ff1")
    netlist.add_flip_flop("ff2")
    netlist.add_gate("g1", "NAND2", ["ff1", "ff1"])
    netlist.add_gate("g2", "XOR2", ["g1", "g1"])
    netlist.add_gate("g3", "INV", ["ff1"])
    netlist.add_gate("g4", "AND2", ["g2", "g3"])
    netlist.set_flip_flop_input("ff1", "g4")
    netlist.set_flip_flop_input("ff2", "g4")
    return netlist


@pytest.fixture(scope="module")
def chain_design(library):
    """The design of :func:`chain_netlist`."""
    return CircuitDesign.from_netlist(chain_netlist(), library=library, rng=0)


class TestNominalArrival:
    def test_hand_computed_chain(self, chain_design, library):
        graph = TimingGraph(chain_design)
        arrivals = nominal_arrival_times(graph)
        clk2q = library.get("DFF").ff_timing.clk_to_q
        nand, xor, inv, and2 = (
            library.get("NAND2").delay,
            library.get("XOR2").delay,
            library.get("INV").delay,
            library.get("AND2").delay,
        )
        expected_max = clk2q + nand + xor + and2
        assert arrivals[("sink", "ff2")][0] == pytest.approx(expected_max)
        # Min path goes through the inverter branch with contamination delays.
        expected_min = (
            clk2q * 0.8
            + library.get("INV").contamination_delay
            + library.get("AND2").contamination_delay
        )
        assert arrivals[("sink", "ff2")][1] == pytest.approx(expected_min)

    def test_max_at_least_min_everywhere(self, tiny_design):
        graph = TimingGraph(tiny_design)
        arrivals = nominal_arrival_times(graph)
        for amax, amin in arrivals.values():
            assert amax >= amin - 1e-9


class TestCanonicalPairDelays:
    def test_chain_pair_means_match_nominal(self, chain_design):
        graph = TimingGraph(chain_design)
        arrivals = nominal_arrival_times(graph)
        pairs = ff_pair_delay_forms(graph, "ff1")
        assert set(pairs) == {"ff1", "ff2"}
        max_form, min_form = pairs["ff2"]
        # Clark's max of correlated same-mean operands adds a small positive
        # bias; the mean must therefore be >= the deterministic arrival and
        # close to it.
        assert max_form.mean >= arrivals[("sink", "ff2")][0] - 1e-9
        assert max_form.mean == pytest.approx(arrivals[("sink", "ff2")][0], rel=0.05)
        assert min_form.mean <= max_form.mean
        assert max_form.std > 0.0

    def test_unknown_launch_rejected(self, chain_design):
        graph = TimingGraph(chain_design)
        with pytest.raises(KeyError):
            ff_pair_delay_forms(graph, "not_a_ff")

    def test_all_pairs_cover_sequential_adjacency(self, tiny_design):
        graph = TimingGraph(tiny_design)
        pairs = all_ff_pair_delay_forms(graph)
        names = list(tiny_design.netlist.flip_flops)
        named = [(names[i], names[j]) for i, j in zip(pairs.launch, pairs.capture, strict=True)]
        adjacency = sequential_adjacency(tiny_design.netlist)
        assert len(named) == len(set(named))
        assert set(named) == set(adjacency.edges())
        assert pairs.max_forms.n_forms == pairs.min_forms.n_forms == len(named)

    def test_array_method_matches_scalar_path(self, tiny_design):
        """The level-batched array sweep must agree with the per-launch
        scalar propagation to 1e-12 on every pair, in the same order."""
        graph = TimingGraph(tiny_design)
        assert_same_pairs(
            all_ff_pair_delay_forms(graph, method="scalar"),
            all_ff_pair_delay_forms(graph, method="array"),
        )

    def test_array_method_matches_scalar_on_suite_circuit(self, small_design):
        graph = TimingGraph(small_design)
        assert_same_pairs(
            all_ff_pair_delay_forms(graph, method="scalar"),
            all_ff_pair_delay_forms(graph, method="array"),
        )

    def test_array_restricted_launch_list(self, tiny_design):
        graph = TimingGraph(tiny_design)
        ffs = list(tiny_design.netlist.flip_flops)[:3]
        scalar = all_ff_pair_delay_forms(graph, launch_ffs=ffs, method="scalar")
        array = all_ff_pair_delay_forms(graph, launch_ffs=ffs, method="array")
        assert set(array.launch.tolist()) <= {0, 1, 2}
        assert_same_pairs(scalar, array)

    def test_array_unknown_launch_rejected(self, tiny_design):
        graph = TimingGraph(tiny_design)
        with pytest.raises(KeyError):
            all_ff_pair_delay_forms(graph, launch_ffs=["nope"], method="array")

    def test_unknown_method_rejected(self, tiny_design):
        graph = TimingGraph(tiny_design)
        with pytest.raises(ValueError):
            all_ff_pair_delay_forms(graph, method="quantum")

    def test_monte_carlo_agrees_with_canonical_mean(self, chain_design):
        """The canonical max-delay form evaluated over samples must agree
        with gate-level Monte-Carlo within a few percent."""
        graph = TimingGraph(chain_design)
        max_form, _ = ff_pair_delay_forms(graph, "ff1")["ff2"]
        rng = np.random.default_rng(0)
        n = 20000
        model = chain_design.variation_model
        z = rng.standard_normal((model.n_shared_sources, n))

        def sample_node(node):
            ann = graph.annotation(node)
            return ann.form_max.evaluate(z, rng.standard_normal(n))

        d_ff1 = sample_node("ff1")
        d_g1 = sample_node("g1")
        d_g2 = sample_node("g2")
        d_g3 = sample_node("g3")
        d_g4 = sample_node("g4")
        arrival = np.maximum(d_ff1 + d_g1 + d_g2, d_ff1 + d_g3) + d_g4
        assert np.isclose(arrival.mean(), max_form.mean, rtol=0.03)
        assert np.isclose(arrival.std(), max_form.std, rtol=0.25)
