"""Tests for repro.circuit.netlist."""

import networkx as nx
import pytest

from repro.circuit.netlist import Netlist
from tests.circuit.nx_oracle import combinational_digraph, sequential_adjacency


@pytest.fixture()
def simple_netlist():
    """Two flip-flops with a two-gate pipeline stage between them."""
    netlist = Netlist("simple")
    netlist.add_primary_input("a")
    netlist.add_flip_flop("ff1", data_input=None)
    netlist.add_flip_flop("ff2", data_input=None)
    netlist.add_gate("g1", "NAND2", ["a", "ff1"])
    netlist.add_gate("g2", "INV", ["g1"])
    netlist.set_flip_flop_input("ff1", "g2")
    netlist.set_flip_flop_input("ff2", "g2")
    netlist.add_primary_output("out", driver="g2")
    return netlist


class TestConstruction:
    def test_counts(self, simple_netlist):
        stats = simple_netlist.stats()
        assert stats == {
            "primary_inputs": 1,
            "primary_outputs": 1,
            "flip_flops": 2,
            "gates": 2,
        }

    def test_duplicate_name_rejected(self, simple_netlist):
        with pytest.raises(ValueError):
            simple_netlist.add_gate("g1", "INV", ["a"])

    def test_lookup_missing_raises(self, simple_netlist):
        with pytest.raises(KeyError):
            simple_netlist.instance("nope")

    def test_contains(self, simple_netlist):
        assert "ff1" in simple_netlist
        assert "zz" not in simple_netlist

    def test_set_ff_input_on_gate_rejected(self, simple_netlist):
        with pytest.raises(ValueError):
            simple_netlist.set_flip_flop_input("g1", "a")

    def test_set_output_driver(self, simple_netlist):
        simple_netlist.set_output_driver("out", "g1")
        assert simple_netlist.instance("out").fanins == ["g1"]

    def test_set_output_driver_on_gate_rejected(self, simple_netlist):
        with pytest.raises(ValueError):
            simple_netlist.set_output_driver("g1", "a")


class TestGraphViews:
    def test_combinational_digraph_is_acyclic(self, simple_netlist):
        graph = combinational_digraph(simple_netlist)
        assert nx.is_directed_acyclic_graph(graph)

    def test_ff_split_into_source_and_sink(self, simple_netlist):
        graph = combinational_digraph(simple_netlist)
        assert "ff1" in graph
        assert ("sink", "ff1") in graph
        # The D input edge goes to the sink node, not to the source node.
        assert graph.has_edge("g2", ("sink", "ff1"))
        assert not graph.has_edge("g2", "ff1")

    def test_sequential_adjacency(self, simple_netlist):
        seq = sequential_adjacency(simple_netlist)
        assert seq.has_edge("ff1", "ff1")  # self loop through g1->g2
        assert seq.has_edge("ff1", "ff2")


class TestValidation:
    def test_valid_netlist_passes(self, simple_netlist, library):
        simple_netlist.validate(library=library)

    def test_dangling_fanin_rejected(self):
        netlist = Netlist()
        netlist.add_gate("g", "INV", ["missing"])
        with pytest.raises(ValueError, match="missing"):
            netlist.validate()

    def test_unconnected_ff_rejected(self):
        netlist = Netlist()
        netlist.add_primary_input("a")
        netlist.add_flip_flop("ff")
        with pytest.raises(ValueError, match="D input"):
            netlist.validate()

    def test_combinational_cycle_rejected(self):
        netlist = Netlist()
        netlist.add_gate("g1", "INV", ["g2"])
        netlist.add_gate("g2", "INV", ["g1"])
        with pytest.raises(ValueError, match="cycle"):
            netlist.validate()

    def test_sequential_loop_allowed(self):
        netlist = Netlist()
        netlist.add_flip_flop("ff")
        netlist.add_gate("g", "INV", ["ff"])
        netlist.set_flip_flop_input("ff", "g")
        netlist.validate()

    def test_strict_arity(self, library):
        netlist = Netlist()
        netlist.add_primary_input("a")
        netlist.add_gate("g", "NAND2", ["a"])
        netlist.validate(library=library)  # relaxed passes
        with pytest.raises(ValueError, match="expects 2"):
            netlist.validate(library=library, strict_arity=True)

    def test_gate_without_fanin_rejected(self):
        netlist = Netlist()
        netlist.add_gate("g", "INV", [])
        with pytest.raises(ValueError):
            netlist.validate()
