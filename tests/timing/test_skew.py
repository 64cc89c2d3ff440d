"""Tests for hold-aware clock-skew assignment."""

import numpy as np
import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core.compiled import ensure_compiled_system
from repro.timing.skew import apply_skews, hold_aware_random_skews
from repro.variation.arrayforms import ArrayForms


class TestHoldAwareSkews:
    def test_respects_hold_limits(self, small_system):
        skews = hold_aware_random_skews(small_system, magnitude=3.0, rng=1)
        names = small_system.ff_names
        hold = small_system.hold_forms
        for k in range(small_system.n_edges):
            form = hold.form(k)
            limit = max(form.mean - 3.0 * form.std, 0.0)
            launch, capture = small_system.edge_launch[k], small_system.edge_capture[k]
            diff = skews.skew(names[capture]) - skews.skew(names[launch])
            assert diff <= limit + 1e-6

    def test_magnitude_bounds_initial_draw(self, small_system):
        skews = hold_aware_random_skews(small_system, magnitude=1.0, rng=2)
        values = np.array([skews.skew(ff) for ff in small_system.ff_names])
        assert np.max(np.abs(values)) <= 1.0 + 1e-9

    def test_zero_magnitude_gives_zero_skews(self, small_system):
        skews = hold_aware_random_skews(small_system, magnitude=0.0, rng=0)
        assert skews.max_abs_skew() == 0.0

    def test_skews_are_not_all_zero(self, small_system):
        skews = hold_aware_random_skews(small_system, magnitude=3.0, rng=1)
        values = np.array([skews.skew(ff) for ff in small_system.ff_names])
        assert np.std(values) > 0.1

    def test_deterministic(self, small_system):
        a = hold_aware_random_skews(small_system, magnitude=2.0, rng=5)
        b = hold_aware_random_skews(small_system, magnitude=2.0, rng=5)
        assert a.skews == b.skews

    def test_builds_each_hold_quantity_once(self, monkeypatch):
        """A suite build stacks every edge's hold quantity in one
        subtraction, and the skew assignment reads that stack."""
        calls = []
        subtract = ArrayForms.subtract

        def counted(stack, other):
            calls.append(stack.n_forms)
            return subtract(stack, other)

        monkeypatch.setattr(ArrayForms, "subtract", counted)
        design = build_suite_circuit("s9234", scale=0.05, seed=1)
        system = ensure_compiled_system(design)
        hold_aware_random_skews(system, magnitude=3.0, rng=1)
        assert calls == [system.n_edges]
        assert system.n_edges > 0

    def test_negative_magnitude_rejected(self, small_system):
        with pytest.raises(ValueError):
            hold_aware_random_skews(small_system, magnitude=-1.0)


class TestApplySkews:
    def test_apply_updates_edges_and_design(self, small_design, small_system):
        original_map = small_design.clock_skew
        original_system = small_design.cached_compiled_system
        original_difference = small_system.skew_difference.copy()
        skews = hold_aware_random_skews(small_system, magnitude=2.0, rng=9)
        try:
            skewed = apply_skews(small_system, skews)
            names = skewed.ff_names
            for k in range(skewed.n_edges):
                launch = names[skewed.edge_launch[k]]
                capture = names[skewed.edge_capture[k]]
                assert skewed.skew_difference[k] == skews.skew(capture) - skews.skew(launch)
            assert skewed.setup_forms is small_system.setup_forms
            assert skewed.hold_forms is small_system.hold_forms
            assert np.array_equal(small_system.skew_difference, original_difference)
            assert small_design.clock_skew is skews
            assert ensure_compiled_system(small_design) is skewed
        finally:
            # Restore the session-scoped fixture's design.
            small_design.clock_skew = original_map
            small_design.cached_compiled_system = original_system
