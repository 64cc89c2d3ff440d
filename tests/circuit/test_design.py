"""Tests for repro.circuit.design."""

import pytest

from repro.circuit.design import CircuitDesign


class TestCircuitDesign:
    def test_from_netlist_defaults(self, tiny_netlist, library):
        design = CircuitDesign.from_netlist(tiny_netlist, library=library, rng=1)
        assert design.name == tiny_netlist.name
        assert len(design.placement) == len(tiny_netlist)
        assert design.clock_skew.max_abs_skew() == 0.0
        assert design.variation_model.die_width == design.placement.die_width

    def test_skew_injection(self, tiny_netlist, library):
        design = CircuitDesign.from_netlist(
            tiny_netlist, library=library, clock_skew_magnitude=1.5, rng=1
        )
        assert 0.0 < design.clock_skew.max_abs_skew() <= 1.5

    def test_flip_flops_and_locations(self, tiny_design):
        ffs = tiny_design.flip_flops
        assert len(ffs) == tiny_design.netlist.n_flip_flops
        locations = tiny_design.ff_locations()
        assert set(locations) == set(ffs)

    def test_min_ff_pitch_positive(self, tiny_design):
        assert tiny_design.min_ff_pitch() > 0.0

    def test_min_ff_pitch_is_computed_once(self, tiny_netlist, library, monkeypatch):
        from repro.circuit.placement import Placement

        design = CircuitDesign.from_netlist(tiny_netlist, library=library, rng=1)
        calls = []
        scan = Placement.min_flip_flop_pitch

        def counted(self, flip_flops):
            calls.append(1)
            return scan(self, flip_flops)

        monkeypatch.setattr(Placement, "min_flip_flop_pitch", counted)
        first = design.min_ff_pitch()
        assert design.min_ff_pitch() == first
        assert len(calls) == 1
        assert first == scan(design.placement, tiny_netlist.flip_flops)

    def test_summary_keys(self, tiny_design):
        summary = tiny_design.summary()
        for key in ("flip_flops", "gates", "die_width", "max_abs_clock_skew"):
            assert key in summary

    def test_validation_happens_at_construction(self, library):
        from repro.circuit.netlist import Netlist

        netlist = Netlist("broken")
        netlist.add_flip_flop("ff")  # no D input
        with pytest.raises(ValueError):
            CircuitDesign.from_netlist(netlist, library=library)
