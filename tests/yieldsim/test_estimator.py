"""Tests for the yield estimator."""

import pytest

from repro.baselines import every_ff_plan
from repro.core.compiled import ensure_compiled_system
from repro.core.results import BufferPlan
from repro.yieldsim import YieldEstimator


@pytest.fixture(scope="module")
def estimator(small_design):
    return YieldEstimator(small_design, n_samples=300, rng=2)


@pytest.fixture(scope="module")
def samples(estimator):
    return estimator.draw_samples()


class TestYieldEstimator:
    def test_period_analysis_matches_targets(self, estimator, samples):
        analysis = estimator.period_analysis(samples)
        assert analysis.mean > 0
        assert analysis.std > 0

    def test_original_yield_monotone_in_period(self, estimator, samples):
        analysis = estimator.period_analysis(samples)
        y_tight = estimator.original_yield(analysis.target_period(0), samples)
        y_loose = estimator.original_yield(analysis.target_period(2), samples)
        assert y_loose >= y_tight

    def test_empty_plan_changes_nothing(self, estimator, samples):
        analysis = estimator.period_analysis(samples)
        period = analysis.target_period(1)
        report = estimator.evaluate_plan(BufferPlan(), period, constraint_samples=samples)
        assert report.tuned_yield == pytest.approx(report.original_yield)
        assert report.yield_improvement == pytest.approx(0.0)

    def test_every_ff_plan_improves_yield(self, estimator, samples, small_design):
        analysis = estimator.period_analysis(samples)
        period = analysis.target_period(0)
        plan = every_ff_plan(small_design, period)
        report = estimator.evaluate_plan(plan, period, constraint_samples=samples)
        assert report.tuned_yield > report.original_yield + 0.1
        assert report.n_samples == samples.n_samples

    def test_report_dict_keys(self, estimator, samples, small_design):
        analysis = estimator.period_analysis(samples)
        period = analysis.target_period(1)
        plan = every_ff_plan(small_design, period)
        report = estimator.evaluate_plan(plan, period, constraint_samples=samples)
        data = report.as_dict()
        for key in ("target_period", "original_yield", "tuned_yield", "yield_improvement"):
            assert key in data

    def test_fresh_samples_path(self, estimator):
        samples = estimator.draw_samples(50)
        assert samples.n_samples == 50


class TestExecutorLifecycle:
    def test_name_created_executor_is_owned_and_closed(self, small_design):
        estimator = YieldEstimator(
            small_design, n_samples=50, rng=2, executor="processes", jobs=2
        )
        assert estimator.executor is not None
        estimator.close()
        assert estimator.executor is None
        estimator.close()  # idempotent

    def test_passed_instance_not_closed(self, small_design):
        from repro.engine import SerialExecutor

        external = SerialExecutor()
        with YieldEstimator(small_design, n_samples=50, rng=2, executor=external) as estimator:
            assert estimator.executor is external
        assert estimator.executor is external  # context exit leaves it alone

    def test_executor_does_not_change_yield(self, small_design):
        period = ensure_compiled_system(small_design).nominal_min_period() * 1.01
        plan = every_ff_plan(small_design, period)
        serial = YieldEstimator(small_design, n_samples=120, rng=4).evaluate_plan(plan, period)
        with YieldEstimator(
            small_design, n_samples=120, rng=4, executor="processes", jobs=2
        ) as parallel_estimator:
            parallel = parallel_estimator.evaluate_plan(plan, period)
        assert serial.tuned_yield == parallel.tuned_yield
        assert serial.original_yield == parallel.original_yield

    def test_process_pool_stays_warm_across_plans(self, small_design):
        """Every plan's sweep runs under the solver's content key, so the
        pool the first plan warmed serves the second one too."""
        from repro.engine import ProcessPoolExecutor

        period = ensure_compiled_system(small_design).nominal_min_period() * 1.01
        every_ff = every_ff_plan(small_design, period)
        plans = [every_ff, BufferPlan(buffers=every_ff.buffers[::2], target_period=period)]
        serial = YieldEstimator(small_design, n_samples=120, rng=4)
        expected = [serial.evaluate_plan(plan, period) for plan in plans]
        with ProcessPoolExecutor(jobs=2) as executor:
            estimator = YieldEstimator(small_design, n_samples=120, rng=4, executor=executor)
            first = estimator.evaluate_plan(plans[0], period)
            warm_key = executor.warm_key
            second = estimator.evaluate_plan(plans[1], period)
            assert executor.warm_key == warm_key is not None
        assert [first, second] == expected
        assert first.tuned_yield != second.tuned_yield
