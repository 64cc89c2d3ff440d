"""Tests for nominal critical-path extraction."""

import pytest

from repro.timing.graph import TimingGraph
from repro.timing.paths import nominal_critical_paths, path_delay_spread


@pytest.fixture(scope="module")
def timing_graph(tiny_design):
    return TimingGraph(tiny_design)


class TestCriticalPaths:
    def test_paths_sorted_by_delay(self, timing_graph):
        paths = nominal_critical_paths(timing_graph, top_k=10)
        delays = [p.delay for p in paths]
        assert delays == sorted(delays, reverse=True)

    def test_path_endpoints_are_ffs(self, timing_graph, tiny_design):
        for path in nominal_critical_paths(timing_graph, top_k=5):
            assert path.launch in tiny_design.netlist.flip_flops
            assert path.capture in tiny_design.netlist.flip_flops
            assert path.nodes[0] == path.launch
            assert path.nodes[-1] == path.capture

    def test_worst_path_matches_required_period(self, tiny_design, timing_graph):
        from repro.core.compiled import CompiledConstraintSystem
        from repro.timing.constraints import extract_constraint_graph

        graph = extract_constraint_graph(tiny_design, timing_graph)
        compiled = CompiledConstraintSystem.from_constraint_graph(graph)
        worst = nominal_critical_paths(timing_graph, top_k=1)[0]
        # The worst path delay plus the capture FF's setup should be close to
        # the nominal minimum period (canonical max adds a small bias and
        # skews shift it slightly).
        setup = tiny_design.library.get("DFF").ff_timing.setup
        assert compiled.nominal_min_period() == pytest.approx(worst.delay + setup, rel=0.1)

    def test_path_nodes_are_connected(self, timing_graph):
        graph = timing_graph.graph
        for path in nominal_critical_paths(timing_graph, top_k=3):
            nodes = list(path.nodes)
            for a, b in zip(nodes[:-1], nodes[1:], strict=True):
                b_node = ("sink", b) if b == path.capture and not graph.has_edge(a, b) else b
                assert graph.has_edge(a, b_node)

    def test_per_launch_limit(self, timing_graph):
        limited = nominal_critical_paths(timing_graph, top_k=50, per_launch_limit=1)
        launches = [p.launch for p in limited]
        assert len(launches) == len(set(launches))

    def test_spread_summary(self, timing_graph):
        spread = path_delay_spread(timing_graph, top_k=20)
        assert spread["max"] >= spread["min"] > 0.0
        assert spread["spread"] >= 0.0
