"""Tests for the synthetic circuit generator."""

import networkx as nx
import pytest

from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
from tests.circuit.nx_oracle import combinational_digraph, sequential_adjacency


class TestGeneratorConfig:
    def test_defaults_resolve(self):
        config = GeneratorConfig(n_flip_flops=100, n_gates=1000)
        assert config.resolved_primary_inputs >= 4
        assert config.resolved_primary_outputs >= 4

    def test_rejects_bad_depths(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_flip_flops=10, n_gates=10, min_depth=5, max_depth=3)

    def test_rejects_zero_ffs(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_flip_flops=0, n_gates=10)

    def test_rejects_bad_deep_fraction(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_flip_flops=10, n_gates=10, deep_cloud_fraction=0.0)


class TestGeneratedStructure:
    @pytest.fixture(scope="class")
    def netlist(self, library):
        config = GeneratorConfig(n_flip_flops=30, n_gates=400, max_depth=8, min_depth=2)
        return generate_sequential_circuit(config, library=library, rng=5)

    def test_requested_sizes(self, netlist):
        assert netlist.n_flip_flops == 30
        assert netlist.n_gates == 400

    def test_validates_against_library(self, netlist, library):
        netlist.validate(library=library)

    def test_combinational_graph_acyclic(self, netlist):
        assert nx.is_directed_acyclic_graph(combinational_digraph(netlist))

    def test_every_ff_has_driver(self, netlist):
        for ff in netlist.flip_flops:
            assert len(netlist.instance(ff).fanins) == 1

    def test_sequential_adjacency_is_sparse(self, netlist):
        seq = sequential_adjacency(netlist)
        edges_per_ff = seq.number_of_edges() / max(1, netlist.n_flip_flops)
        assert edges_per_ff < 15

    def test_sequential_graph_covers_all_ffs(self, netlist):
        seq = sequential_adjacency(netlist)
        # Every flip-flop captures from at least one launching flip-flop.
        capture_degree = [seq.in_degree(ff) for ff in netlist.flip_flops]
        assert min(capture_degree) >= 1

    def test_deterministic_given_seed(self, library):
        config = GeneratorConfig(n_flip_flops=15, n_gates=120)
        a = generate_sequential_circuit(config, library=library, rng=9)
        b = generate_sequential_circuit(config, library=library, rng=9)
        assert [a.instance(g).fanins for g in a.gates] == [b.instance(g).fanins for g in b.gates]

    def test_different_seeds_differ(self, library):
        config = GeneratorConfig(n_flip_flops=15, n_gates=120)
        a = generate_sequential_circuit(config, library=library, rng=1)
        b = generate_sequential_circuit(config, library=library, rng=2)
        assert [a.instance(g).fanins for g in a.gates] != [b.instance(g).fanins for g in b.gates]

    def test_tiny_configuration(self, library):
        config = GeneratorConfig(n_flip_flops=2, n_gates=5, max_depth=3, min_depth=1)
        netlist = generate_sequential_circuit(config, library=library, rng=0)
        netlist.validate(library=library)
        assert netlist.n_flip_flops == 2
