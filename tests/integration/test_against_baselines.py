"""Integration test: the proposed method versus the baselines.

The key comparative claim: at an equal (small) buffer budget the
sampling-based placement rescues more chips than random placement and is
competitive with the criticality heuristic while additionally shrinking
the per-buffer ranges; and it approaches the buffer-at-every-flip-flop
upper bound with a tiny fraction of its buffers.
"""

import pytest

from repro.baselines import criticality_plan, every_ff_plan, random_plan
from repro.core import BufferInsertionFlow, FlowConfig
from repro.yieldsim import YieldEstimator


@pytest.fixture(scope="module")
def setting(small_design):
    config = FlowConfig(n_samples=250, n_eval_samples=400, seed=5, target_sigma=0.0)
    result = BufferInsertionFlow(small_design, config).run()
    estimator = YieldEstimator(small_design, n_samples=400, rng=31)
    samples = estimator.draw_samples()
    return result, estimator, samples


class TestAgainstBaselines:
    def test_beats_random_at_equal_budget(self, setting, small_design):
        result, estimator, samples = setting
        budget = max(1, result.plan.n_buffers)
        random_report = estimator.evaluate_plan(
            random_plan(small_design, result.target_period, budget, rng=3),
            result.target_period,
            constraint_samples=samples,
        )
        proposed_report = estimator.evaluate_plan(
            result.plan, result.target_period, constraint_samples=samples
        )
        assert proposed_report.tuned_yield >= random_report.tuned_yield

    def test_close_to_every_ff_upper_bound(self, setting, small_design):
        result, estimator, samples = setting
        upper_bound = estimator.evaluate_plan(
            every_ff_plan(small_design, result.target_period),
            result.target_period,
            constraint_samples=samples,
        )
        proposed = estimator.evaluate_plan(
            result.plan, result.target_period, constraint_samples=samples
        )
        # A handful of buffers must recover most of what buffers everywhere
        # would recover.
        gain_all = upper_bound.tuned_yield - upper_bound.original_yield
        gain_few = proposed.tuned_yield - proposed.original_yield
        assert gain_few >= 0.5 * gain_all
        assert result.plan.n_buffers <= 0.5 * small_design.netlist.n_flip_flops

    def test_competitive_with_criticality_heuristic(self, setting, small_design):
        result, estimator, samples = setting
        budget = max(1, result.plan.n_buffers)
        heuristic = estimator.evaluate_plan(
            criticality_plan(small_design, result.target_period, budget),
            result.target_period,
            constraint_samples=samples,
        )
        proposed = estimator.evaluate_plan(
            result.plan, result.target_period, constraint_samples=samples
        )
        assert proposed.tuned_yield >= heuristic.tuned_yield - 0.05

    def test_ranges_smaller_than_symmetric_baseline(self, setting, small_design):
        result, _, _ = setting
        # The proposed method reports the *observed* min/max range, which must
        # on average be no larger than the full symmetric window the
        # baselines use (20 steps).
        if result.plan.n_buffers:
            assert result.plan.average_range_steps < 20.0
