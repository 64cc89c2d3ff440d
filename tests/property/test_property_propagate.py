"""Property-based tests for the statistical propagation sweep.

On generated netlists the array sweep (``method="array"``) must return
what the scalar per-launch path (``method="scalar"``, the oracle)
returns: the same flip-flop pairs in the same order, and every
coefficient of both delay forms within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.design import CircuitDesign
from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
from repro.circuit.library import default_library
from repro.timing.graph import TimingGraph
from repro.timing.propagate import all_ff_pair_delay_forms

_LIBRARY = default_library()
TOL = 1e-12

CIRCUITS = {
    "n_ffs": st.integers(2, 40),
    "gates_per_ff": st.integers(3, 12),
    "depth": st.integers(2, 10),
    "seed": st.integers(0, 10_000),
}


def timing_graph(n_ffs: int, gates_per_ff: int, depth: int, seed: int) -> TimingGraph:
    config = GeneratorConfig(
        n_flip_flops=n_ffs,
        n_gates=n_ffs * gates_per_ff,
        max_depth=depth,
        min_depth=min(2, depth),
    )
    netlist = generate_sequential_circuit(config, library=_LIBRARY, rng=seed)
    design = CircuitDesign.from_netlist(
        netlist, library=_LIBRARY, clock_skew_magnitude=0.0, rng=seed
    )
    return TimingGraph(design)


def assert_sweep_matches_oracle(graph: TimingGraph, launch_ffs) -> None:
    scalar = all_ff_pair_delay_forms(graph, launch_ffs=launch_ffs, method="scalar")
    swept = all_ff_pair_delay_forms(graph, launch_ffs=launch_ffs, method="array")
    assert list(swept) == list(scalar)
    for pair, oracle in scalar.items():
        for got, want in zip(swept[pair], oracle, strict=True):
            assert abs(got.mean - want.mean) <= TOL
            assert np.max(np.abs(got.sensitivities - want.sensitivities)) <= TOL
            assert abs(got.independent - want.independent) <= TOL


class TestSweepMatchesScalarOracle:
    @given(**CIRCUITS)
    def test_every_flip_flop_launches(self, n_ffs, gates_per_ff, depth, seed):
        graph = timing_graph(n_ffs, gates_per_ff, depth, seed)
        assert_sweep_matches_oracle(graph, list(graph.design.netlist.flip_flops))

    @given(**CIRCUITS, data=st.data())
    def test_launch_subset_in_random_order(self, n_ffs, gates_per_ff, depth, seed, data):
        graph = timing_graph(n_ffs, gates_per_ff, depth, seed)
        flip_flops = list(graph.design.netlist.flip_flops)
        launches = data.draw(st.lists(st.sampled_from(flip_flops), unique=True))
        assert_sweep_matches_oracle(graph, launches)


@pytest.mark.parametrize("method", ["array", "scalar"])
def test_no_launches_give_no_pairs(tiny_design, method):
    graph = TimingGraph(tiny_design)
    assert all_ff_pair_delay_forms(graph, launch_ffs=[], method=method) == {}
