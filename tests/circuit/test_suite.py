"""Tests for the Table-I benchmark suite builder."""

import numpy as np
import pytest

from repro.circuit.suite import (
    CIRCUIT_SPECS,
    build_suite_circuit,
    list_suite_circuits,
    suggested_scale,
)
from repro.core.compiled import CompiledConstraintSystem


class TestSpecs:
    def test_all_eight_table_one_circuits(self):
        assert list_suite_circuits() == [
            "s9234",
            "s13207",
            "s15850",
            "s38584",
            "mem_ctrl",
            "usb_funct",
            "ac97_ctrl",
            "pci_bridge32",
        ]

    def test_sizes_match_paper(self):
        assert CIRCUIT_SPECS["s9234"].n_flip_flops == 211
        assert CIRCUIT_SPECS["s9234"].n_gates == 5597
        assert CIRCUIT_SPECS["pci_bridge32"].n_flip_flops == 3321
        assert CIRCUIT_SPECS["pci_bridge32"].n_gates == 12494

    def test_suggested_scale(self):
        assert suggested_scale("s9234", target_flip_flops=500) == 1.0
        scale = suggested_scale("pci_bridge32", target_flip_flops=100)
        assert 0.0 < scale < 0.05


class TestBuildSuiteCircuit:
    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_suite_circuit("s999")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            build_suite_circuit("s9234", scale=0.0)

    def test_scaled_size(self, small_design):
        spec = CIRCUIT_SPECS["s9234"]
        expected_ffs = int(round(spec.n_flip_flops * 0.15))
        assert abs(small_design.netlist.n_flip_flops - expected_ffs) <= 1

    def test_clock_skews_injected(self, small_design):
        assert small_design.clock_skew.max_abs_skew() > 0.0

    def test_constraint_graph_cached(self, small_design):
        assert isinstance(small_design.cached_compiled_system, CompiledConstraintSystem)

    def test_deterministic_given_seed(self):
        a = build_suite_circuit("s9234", scale=0.05, seed=4)
        b = build_suite_circuit("s9234", scale=0.05, seed=4)
        assert a.netlist.stats() == b.netlist.stats()
        assert a.clock_skew.skews == b.clock_skew.skews

    def test_hold_constraints_mostly_satisfied_nominal(self, small_system):
        # The hold-aware skew assignment must keep nominal hold slack
        # non-negative on (almost) every edge.
        bounds = small_system.hold_forms.means - small_system.skew_difference
        violated = int(np.sum(bounds < 0))
        assert violated / len(bounds) < 0.02
