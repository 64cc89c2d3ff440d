"""Tests for the baseline buffer-placement strategies."""

import pytest

from repro.baselines import (
    criticality_plan,
    every_ff_plan,
    flip_flop_criticality,
    random_plan,
)
from repro.core.compiled import ensure_compiled_system
from repro.core.config import BufferSpec


@pytest.fixture(scope="module")
def period(small_design):
    return ensure_compiled_system(small_design).nominal_min_period() * 1.02


class TestEveryFF:
    def test_one_buffer_per_ff(self, small_design, period):
        plan = every_ff_plan(small_design, period)
        assert plan.n_buffers == small_design.netlist.n_flip_flops

    def test_symmetric_full_range(self, small_design, period):
        spec = BufferSpec()
        plan = every_ff_plan(small_design, period, spec)
        for buffer in plan.buffers:
            assert buffer.lower == pytest.approx(-spec.max_range(period) / 2)
            assert buffer.upper == pytest.approx(spec.max_range(period) / 2)


class TestCriticality:
    def test_scores_cover_all_ffs(self, small_design, period):
        scores = flip_flop_criticality(small_design, period)
        assert set(scores) == set(small_design.netlist.flip_flops)
        assert all(s >= 0 for s in scores.values())

    def test_tighter_period_increases_criticality(self, small_design):
        nominal = ensure_compiled_system(small_design).nominal_min_period()
        tight = flip_flop_criticality(small_design, nominal * 0.95)
        loose = flip_flop_criticality(small_design, nominal * 1.15)
        assert sum(tight.values()) > sum(loose.values())

    def test_plan_picks_top_k(self, small_design, period):
        scores = flip_flop_criticality(small_design, period)
        plan = criticality_plan(small_design, period, 4)
        assert plan.n_buffers == 4
        chosen_scores = [scores[b.flip_flop] for b in plan.buffers]
        threshold = sorted(scores.values(), reverse=True)[3]
        assert min(chosen_scores) >= threshold - 1e-12

    def test_negative_count_rejected(self, small_design, period):
        with pytest.raises(ValueError):
            criticality_plan(small_design, period, -1)


class TestRandom:
    def test_requested_count(self, small_design, period):
        plan = random_plan(small_design, period, 5, rng=0)
        assert plan.n_buffers == 5

    def test_count_clamped_to_ff_count(self, small_design, period):
        plan = random_plan(small_design, period, 10**6, rng=0)
        assert plan.n_buffers == small_design.netlist.n_flip_flops

    def test_deterministic_given_seed(self, small_design, period):
        a = random_plan(small_design, period, 5, rng=3)
        b = random_plan(small_design, period, 5, rng=3)
        assert a.buffered_flip_flops() == b.buffered_flip_flops()

    def test_negative_count_rejected(self, small_design, period):
        with pytest.raises(ValueError):
            random_plan(small_design, period, -2)


class TestComparativeShape:
    def test_criticality_beats_random_at_equal_budget(self, small_design, period):
        """The informed baseline must rescue more chips than random placement
        with the same number of buffers — the comparison the paper's intro
        motivates."""
        from repro.yieldsim import YieldEstimator

        estimator = YieldEstimator(small_design, n_samples=250, rng=8)
        samples = estimator.draw_samples()
        analysis = estimator.period_analysis(samples)
        target = analysis.target_period(0.0)
        k = 5
        informed = estimator.evaluate_plan(
            criticality_plan(small_design, target, k),
            target,
            constraint_samples=samples,
        )
        uninformed = estimator.evaluate_plan(
            random_plan(small_design, target, k, rng=1), target, constraint_samples=samples
        )
        assert informed.tuned_yield >= uninformed.tuned_yield


class TestBaselineRegistry:
    def test_choices_build_plans(self, small_design):
        from repro.baselines import BASELINE_CHOICES, build_baseline_plan

        period = 30.0
        for name in BASELINE_CHOICES:
            plan = build_baseline_plan(name, small_design, period, n_buffers=3, rng=5)
            assert plan.target_period == period
            if name == "every_ff":
                assert plan.n_buffers == len(small_design.netlist.flip_flops)
            else:
                assert plan.n_buffers == 3

    def test_random_is_seeded(self, small_design):
        from repro.baselines import build_baseline_plan

        first = build_baseline_plan("random", small_design, 30.0, n_buffers=4, rng=11)
        second = build_baseline_plan("random", small_design, 30.0, n_buffers=4, rng=11)
        assert first.buffered_flip_flops() == second.buffered_flip_flops()

    def test_unknown_name_raises(self, small_design):
        import pytest

        from repro.baselines import build_baseline_plan

        with pytest.raises(ValueError, match="unknown baseline"):
            build_baseline_plan("oracle", small_design, 30.0, n_buffers=1)
