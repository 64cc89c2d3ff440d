"""Property-based tests for the circuit substrate."""

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
from repro.circuit.library import default_library
from repro.core.bounds import best_window
from tests.circuit import nx_oracle

_LIBRARY = default_library()


class TestGeneratorProperties:
    @given(
        n_ffs=st.integers(2, 40),
        gates_per_ff=st.integers(3, 12),
        depth=st.integers(2, 10),
        seed=st.integers(0, 10_000),
    )
    @example(n_ffs=2, gates_per_ff=5, depth=2, seed=0)
    @settings(max_examples=15)
    def test_generated_circuits_are_well_formed(self, n_ffs, gates_per_ff, depth, seed):
        config = GeneratorConfig(
            n_flip_flops=n_ffs,
            n_gates=n_ffs * gates_per_ff,
            max_depth=depth,
            min_depth=min(2, depth),
        )
        netlist = generate_sequential_circuit(config, library=_LIBRARY, rng=seed)
        netlist.validate(library=_LIBRARY)
        assert netlist.n_flip_flops == n_ffs
        assert netlist.n_gates == n_ffs * gates_per_ff
        assert nx.is_directed_acyclic_graph(nx_oracle.combinational_digraph(netlist))
        # Every D pin is driven from its own cloud, so a flip-flop captures
        # from at most the cloud's launch_group_size + 1 launches, possibly
        # from none.
        adjacency = nx_oracle.sequential_adjacency(netlist)
        for ff in netlist.flip_flops:
            assert len(netlist.instance(ff).fanins) == 1
            assert adjacency.in_degree(ff) <= config.launch_group_size + 1
        if (n_ffs, gates_per_ff, depth, seed) == (2, 5, 2, 0):
            # The pinned example: ff_1 captures from primary inputs only.
            assert adjacency.in_degree("ff_1") == 0


class TestWindowProperties:
    @given(
        values=st.lists(st.integers(-20, 20), min_size=1, max_size=60),
        width=st.integers(1, 40),
    )
    def test_window_always_covers_zero_and_maximises_coverage(self, values, width):
        window = best_window([float(v) for v in values], float(width), step=1.0)
        assert window.lower <= 0.0 <= window.upper + 1e-9
        assert window.upper - window.lower == width
        # Coverage reported must match a direct count.
        direct = sum(1 for v in values if window.lower - 1e-9 <= v <= window.upper + 1e-9)
        assert window.covered == direct
        # No other zero-covering integer placement does better.
        best_possible = max(
            sum(1 for v in values if lower - 1e-9 <= v <= lower + width + 1e-9)
            for lower in range(-width, 1)
        )
        assert window.covered == best_possible
