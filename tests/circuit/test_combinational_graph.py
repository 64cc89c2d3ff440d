"""The netlist's combinational graph on integer ids, against networkx.

networkx is the oracle: :func:`tests.circuit.nx_oracle.combinational_digraph`
builds the ``DiGraph`` instance by instance, and the id graph must
reproduce its node order, each node's fan-in and fan-out order and its
topological order (Kahn generations).  These orders fix the fold order of
the Clark sweep and the placement order, so any difference would move
designs.
"""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.bench import parse_bench
from repro.circuit.design import CircuitDesign
from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
from repro.circuit.library import default_library
from repro.circuit.netlist import Netlist
from repro.timing.graph import TimingGraph
from repro.timing.propagate import nominal_arrival_times
from tests.circuit.nx_oracle import combinational_digraph
from tests.timing.test_propagate import chain_netlist

_LIBRARY = default_library()

BENCH_WITH_REPEATED_PIN = """
INPUT(a)
INPUT(b)
OUTPUT(G)
OUTPUT(H)
q = DFF(H)
G = AND(a, a)
H = OR(q, G, q)
K = NAND(b, G)
r = DFF(K)
"""


def assert_matches_networkx(netlist: Netlist) -> None:
    """Node order, adjacency orders and topological order equal networkx's."""
    graph = netlist.combinational_graph()
    reference = combinational_digraph(netlist)
    names = graph.names
    assert names == list(reference.nodes)
    assert graph.index == {name: node for node, name in enumerate(names)}
    for node, name in enumerate(names):
        assert [names[p] for p in graph.fanin[node]] == list(reference.predecessors(name))
        assert [names[s] for s in graph.fanout[node]] == list(reference.successors(name))
    assert [names[node] for node in graph.order] == list(nx.topological_sort(reference))


class TestAgainstNetworkx:
    @given(
        n_ffs=st.integers(2, 40),
        gates_per_ff=st.integers(3, 12),
        depth=st.integers(2, 10),
        seed=st.integers(0, 10_000),
    )
    def test_generated_netlists(self, n_ffs, gates_per_ff, depth, seed):
        config = GeneratorConfig(
            n_flip_flops=n_ffs,
            n_gates=n_ffs * gates_per_ff,
            max_depth=depth,
            min_depth=min(2, depth),
        )
        assert_matches_networkx(generate_sequential_circuit(config, library=_LIBRARY, rng=seed))

    def test_chain_netlist_with_repeated_fanin(self):
        netlist = chain_netlist()
        assert_matches_networkx(netlist)
        graph = netlist.combinational_graph()
        # g1 = NAND2(ff1, ff1): one edge, so one driver.
        assert graph.fanin[graph.index["g1"]] == [graph.index["ff1"]]

    def test_bench_text_with_repeated_pin(self):
        netlist = parse_bench(BENCH_WITH_REPEATED_PIN, name="repeat", library=_LIBRARY)
        assert_matches_networkx(netlist)
        graph = netlist.combinational_graph()
        assert [graph.names[p] for p in graph.fanin[graph.index["G"]]] == ["a"]
        assert [graph.names[p] for p in graph.fanin[graph.index["H"]]] == ["q", "G"]

    def test_node_ids_put_each_sink_after_its_flip_flop(self):
        graph = chain_netlist().combinational_graph()
        assert graph.names[:4] == ["ff1", ("sink", "ff1"), "ff2", ("sink", "ff2")]

    def test_suite_sized_netlist(self, small_design):
        assert_matches_networkx(small_design.netlist)


class TestCycles:
    def test_cycle_names_a_node_on_it(self):
        netlist = Netlist()
        netlist.add_primary_input("a")
        netlist.add_gate("g0", "INV", ["a"])
        netlist.add_gate("g1", "NAND2", ["g0", "g3"])
        netlist.add_gate("g2", "INV", ["g1"])
        netlist.add_gate("g3", "INV", ["g2"])
        netlist.add_gate("g4", "INV", ["g3"])  # downstream of the cycle, not on it
        with pytest.raises(ValueError, match="cycle") as info:
            netlist.validate()
        message = str(info.value)
        assert any(f"'{node}'" in message for node in ("g1", "g2", "g3"))
        assert "'g4'" not in message and "'g0'" not in message

    def test_self_loop(self):
        netlist = Netlist()
        netlist.add_gate("g", "INV", ["g"])
        with pytest.raises(ValueError, match="cycle.*'g'"):
            netlist.combinational_graph()


def _design() -> CircuitDesign:
    """ff1 -> g1 -> g2 -> ff1, with a primary output on g2 (graph built)."""
    netlist = Netlist("mutable")
    netlist.add_primary_input("a")
    netlist.add_flip_flop("ff1")
    netlist.add_gate("g1", "NAND2", ["a", "ff1"])
    netlist.add_gate("g2", "INV", ["g1"])
    netlist.set_flip_flop_input("ff1", "g2")
    netlist.add_primary_output("out", driver="g2")
    design = CircuitDesign.from_netlist(netlist, library=_LIBRARY, rng=0)
    TimingGraph(design)
    return design


def _timing_graph_matches_networkx(design: CircuitDesign) -> None:
    timing = TimingGraph(design)
    reference = combinational_digraph(design.netlist)
    assert timing.topological_order == list(nx.topological_sort(reference))
    assert set(nominal_arrival_times(timing)) == set(reference.nodes)


class TestMutationsClearTheGraph:
    def test_add_gate(self):
        design = _design()
        netlist = design.netlist
        netlist.add_gate("g3", "INV", ["g2"])
        _timing_graph_matches_networkx(design)
        netlist.add_gate("g4", "NAND2", ["g1", "g5"])
        netlist.add_gate("g5", "INV", ["g4"])
        with pytest.raises(ValueError, match="cycle"):
            netlist.validate()

    def test_set_flip_flop_input(self):
        design = _design()
        netlist = design.netlist
        netlist.set_flip_flop_input("ff1", "g1")
        _timing_graph_matches_networkx(design)
        graph = netlist.combinational_graph()
        assert graph.fanin[graph.index[("sink", "ff1")]] == [graph.index["g1"]]

    def test_set_output_driver(self):
        design = _design()
        netlist = design.netlist
        netlist.set_output_driver("out", "g1")
        _timing_graph_matches_networkx(design)
        # A gate reading the output port, then the port driven by that
        # gate: a cycle only the rebuilt graph can see.
        netlist.add_gate("g6", "INV", ["out"])
        netlist.validate()
        netlist.set_output_driver("out", "g6")
        with pytest.raises(ValueError, match="cycle"):
            netlist.validate()

    def test_graph_is_reused_without_mutation(self):
        design = _design()
        assert design.netlist.combinational_graph() is TimingGraph(design).comb
