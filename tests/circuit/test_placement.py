"""Tests for repro.circuit.placement."""

import pytest

from repro.circuit.placement import Placement, grid_placement


class TestGridPlacement:
    def test_all_instances_placed(self, tiny_netlist):
        placement = grid_placement(tiny_netlist, rng=0)
        assert len(placement) == len(tiny_netlist)

    def test_locations_within_die(self, tiny_netlist):
        placement = grid_placement(tiny_netlist, rng=0)
        for x, y in placement.locations.values():
            assert 0.0 <= x <= placement.die_width
            assert 0.0 <= y <= placement.die_height

    def test_deterministic(self, tiny_netlist):
        a = grid_placement(tiny_netlist, rng=4)
        b = grid_placement(tiny_netlist, rng=4)
        assert a.locations == b.locations

    def test_utilization_controls_die_size(self, tiny_netlist):
        dense = grid_placement(tiny_netlist, utilization=1.0, rng=0)
        sparse = grid_placement(tiny_netlist, utilization=0.25, rng=0)
        assert sparse.die_width * sparse.die_height > dense.die_width * dense.die_height

    def test_invalid_utilization(self, tiny_netlist):
        with pytest.raises(ValueError):
            grid_placement(tiny_netlist, utilization=0.0)


class TestPlacement:
    def test_manhattan_distance(self):
        placement = Placement(locations={"a": (0.0, 0.0), "b": (3.0, 4.0)})
        assert placement.manhattan_distance("a", "b") == 7.0

    def test_missing_location_raises(self):
        placement = Placement(locations={"a": (0.0, 0.0)})
        with pytest.raises(KeyError):
            placement.location("b")

    def test_min_ff_pitch_positive(self, tiny_netlist):
        placement = grid_placement(tiny_netlist, rng=0)
        pitch = placement.min_flip_flop_pitch(tiny_netlist.flip_flops)
        assert pitch > 0.0

    def test_min_ff_pitch_fallback(self):
        placement = Placement(locations={"a": (0.0, 0.0)}, row_pitch=2.0)
        assert placement.min_flip_flop_pitch(["a"]) == 2.0

    def test_min_ff_pitch_skips_zero_distances(self):
        placement = Placement(
            locations={"a": (1.0, 1.0), "b": (1.0, 1.0), "c": (1.5, 3.0)}, row_pitch=2.0
        )
        assert placement.min_flip_flop_pitch(["a", "ghost", "b", "c"]) == 2.5
        # All placed flip-flops at one point: no positive distance.
        assert placement.min_flip_flop_pitch(["a", "b", "ghost"]) == 2.0
