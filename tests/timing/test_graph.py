"""Tests for repro.timing.graph."""

import networkx as nx
import pytest

from repro.timing.graph import TimingGraph
from tests.circuit.nx_oracle import combinational_digraph


@pytest.fixture(scope="module")
def timing_graph(tiny_design):
    return TimingGraph(tiny_design)


class TestTimingGraph:
    def test_topological_order_covers_graph(self, timing_graph, tiny_design):
        graph = combinational_digraph(tiny_design.netlist)
        assert len(timing_graph.topological_order) == graph.number_of_nodes()

    def test_graph_is_acyclic(self, tiny_design):
        assert nx.is_directed_acyclic_graph(combinational_digraph(tiny_design.netlist))

    def test_gate_annotation_matches_library(self, timing_graph, tiny_design, library):
        gate = tiny_design.netlist.gates[0]
        cell = library.get(tiny_design.netlist.instance(gate).cell)
        annotation = timing_graph.annotation(gate)
        assert annotation.nominal_max == cell.delay
        assert annotation.nominal_min == cell.contamination_delay
        assert annotation.form_max.mean == cell.delay
        assert annotation.form_max.std > 0.0

    def test_ff_launch_node_carries_clk_to_q(self, timing_graph, tiny_design, library):
        ff = tiny_design.netlist.flip_flops[0]
        cell = library.get(tiny_design.netlist.instance(ff).cell)
        annotation = timing_graph.annotation(ff)
        assert annotation.nominal_max == cell.ff_timing.clk_to_q

    def test_capture_node_is_zero_delay(self, timing_graph, tiny_design):
        ff = tiny_design.netlist.flip_flops[0]
        annotation = timing_graph.annotation(("sink", ff))
        assert annotation.nominal_max == 0.0
        assert annotation.form_max.std == 0.0

    def test_primary_input_is_zero_delay(self, timing_graph, tiny_design):
        pi = tiny_design.netlist.primary_inputs[0]
        assert timing_graph.annotation(pi).nominal_max == 0.0

    def test_launch_nodes(self, timing_graph, tiny_design):
        launches = timing_graph.launch_nodes()
        assert set(tiny_design.netlist.flip_flops).issubset(launches)
        assert set(tiny_design.netlist.primary_inputs).issubset(launches)

    def test_setup_and_hold_forms(self, timing_graph, tiny_design, library):
        ff = tiny_design.netlist.flip_flops[0]
        cell = library.get("DFF")
        assert timing_graph.setup_form(ff).mean == cell.ff_timing.setup
        assert timing_graph.hold_form(ff).mean == cell.ff_timing.hold

    def test_fanout_cone_nonempty_for_ff(self, tiny_design):
        ff = tiny_design.netlist.flip_flops[0]
        assert len(nx.descendants(combinational_digraph(tiny_design.netlist), ff)) > 0
