"""Tests for hold-aware clock-skew assignment."""

import numpy as np
import pytest

from repro.timing.constraints import SequentialEdge
from repro.timing.skew import apply_skews, hold_aware_random_skews


class TestHoldAwareSkews:
    def test_respects_hold_limits(self, small_constraint_graph):
        skews = hold_aware_random_skews(small_constraint_graph, magnitude=3.0, rng=1)
        for edge in small_constraint_graph.edges:
            limit = max(edge.hold_quantity.mean - 3.0 * edge.hold_quantity.std, 0.0)
            diff = skews.skew(edge.capture) - skews.skew(edge.launch)
            assert diff <= limit + 1e-6

    def test_magnitude_bounds_initial_draw(self, small_constraint_graph):
        skews = hold_aware_random_skews(small_constraint_graph, magnitude=1.0, rng=2)
        values = np.array([skews.skew(ff) for ff in small_constraint_graph.ff_names])
        assert np.max(np.abs(values)) <= 1.0 + 1e-9

    def test_zero_magnitude_gives_zero_skews(self, small_constraint_graph):
        skews = hold_aware_random_skews(small_constraint_graph, magnitude=0.0, rng=0)
        assert skews.max_abs_skew() == 0.0

    def test_skews_are_not_all_zero(self, small_constraint_graph):
        skews = hold_aware_random_skews(small_constraint_graph, magnitude=3.0, rng=1)
        values = np.array([skews.skew(ff) for ff in small_constraint_graph.ff_names])
        assert np.std(values) > 0.1

    def test_deterministic(self, small_constraint_graph):
        a = hold_aware_random_skews(small_constraint_graph, magnitude=2.0, rng=5)
        b = hold_aware_random_skews(small_constraint_graph, magnitude=2.0, rng=5)
        assert a.skews == b.skews

    def test_builds_each_hold_quantity_once(self, small_constraint_graph, monkeypatch):
        calls = []
        hold_quantity = SequentialEdge.hold_quantity.fget

        def counted(edge):
            calls.append(edge)
            return hold_quantity(edge)

        monkeypatch.setattr(SequentialEdge, "hold_quantity", property(counted))
        hold_aware_random_skews(small_constraint_graph, magnitude=3.0, rng=1)
        assert len(calls) == small_constraint_graph.n_edges > 0

    def test_negative_magnitude_rejected(self, small_constraint_graph):
        with pytest.raises(ValueError):
            hold_aware_random_skews(small_constraint_graph, magnitude=-1.0)


class TestApplySkews:
    def test_apply_updates_edges_and_design(self, small_design, small_constraint_graph):
        original = {
            k: (e.skew_launch, e.skew_capture)
            for k, e in enumerate(small_constraint_graph.edges)
        }
        skews = hold_aware_random_skews(small_constraint_graph, magnitude=2.0, rng=9)
        apply_skews(small_constraint_graph, skews)
        try:
            for edge in small_constraint_graph.edges:
                assert edge.skew_launch == skews.skew(edge.launch)
                assert edge.skew_capture == skews.skew(edge.capture)
            assert small_design.clock_skew is skews
        finally:
            # Restore the session-scoped fixture's original skews.
            from repro.circuit.clockskew import ClockSkewMap

            for k, edge in enumerate(small_constraint_graph.edges):
                edge.skew_launch, edge.skew_capture = original[k]
            restored_map = {
                e.launch: e.skew_launch for e in small_constraint_graph.edges
            }
            restored_map.update(
                {e.capture: e.skew_capture for e in small_constraint_graph.edges}
            )
            small_design.clock_skew = ClockSkewMap(restored_map)
