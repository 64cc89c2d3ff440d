"""Tests for speed binning with post-silicon tuning (paper future work)."""

import numpy as np
import pytest

from repro.core.results import Buffer, BufferPlan
from repro.core.sample_solver import ConstraintTopology
from repro.timing.constraints import ConstraintSamples
from repro.tuning.binning import (
    BinningResult,
    SpeedBin,
    TestCostModel,
    default_bins,
    speed_binning,
)


def chain_topology(n_ffs=3):
    return ConstraintTopology(
        ff_names=[f"ff{i}" for i in range(n_ffs)],
        edge_launch=np.arange(n_ffs - 1),
        edge_capture=np.arange(1, n_ffs),
    )


def samples_with_periods(periods):
    """Two-edge samples whose un-tuned minimum period equals ``periods``."""
    periods = np.asarray(periods, dtype=float)
    setup = np.vstack([periods, periods - 5.0])  # edge 0 is the critical one
    hold = np.full((2, periods.size), 10.0)
    return ConstraintSamples(setup, hold, np.zeros(2))


class TestDefaultBins:
    def test_ladder_spans_mu_to_two_sigma(self):
        bins = default_bins(30.0, 2.0, n_bins=4)
        assert bins[0].period == pytest.approx(28.0)
        assert bins[-1].period == pytest.approx(34.0)
        assert len(bins) == 4

    def test_revenue_decreases(self):
        bins = default_bins(30.0, 2.0, n_bins=4)
        revenues = [b.revenue for b in bins]
        assert revenues == sorted(revenues, reverse=True)

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError):
            default_bins(30.0, 2.0, n_bins=0)

    def test_bin_validation(self):
        with pytest.raises(ValueError):
            SpeedBin("x", period=-1.0)


class TestSpeedBinning:
    @pytest.fixture()
    def bins(self):
        return [SpeedBin("fast", 10.0, revenue=1.0), SpeedBin("slow", 14.0, revenue=0.6)]

    def test_untuned_assignment(self, bins):
        topology = chain_topology()
        samples = samples_with_periods([9.0, 12.0, 16.0])
        result = speed_binning(topology, samples, bins)
        assert result.untuned_counts == [1, 1]
        assert result.untuned_scrap == 1
        assert result.tuned_counts == result.untuned_counts  # no plan given
        assert result.configuration_attempts == 0

    def test_tuning_upgrades_chips(self, bins):
        topology = chain_topology()
        samples = samples_with_periods([12.0, 16.0])
        # Buffer on ff1 (capture of the critical edge 0) with a generous range
        # can absorb up to 5 time units of setup violation on that edge.
        plan = BufferPlan(buffers=[Buffer("ff1", lower=-5.0, upper=5.0, step=0.0)])
        result = speed_binning(topology, samples, bins, plan=plan)
        # Chip 0 (period 12) is upgraded into the fast bin; chip 1 (period 16)
        # is rescued from scrap into one of the bins.
        assert result.tuned_counts[0] >= 1
        assert result.tuned_scrap == 0
        assert result.configuration_attempts >= 2
        assert result.upgraded_fraction == pytest.approx(1.0)

    def test_table_rendering(self, bins):
        topology = chain_topology()
        samples = samples_with_periods([9.0, 12.0])
        result = speed_binning(topology, samples, bins)
        table = result.as_table()
        assert "fast" in table and "scrap" in table

    def test_fractions_sum_to_one(self, bins):
        topology = chain_topology()
        samples = samples_with_periods([9.0, 12.0, 16.0, 11.0])
        result = speed_binning(topology, samples, bins)
        total = sum(result.untuned_fractions()) + result.untuned_scrap / result.n_samples
        assert total == pytest.approx(1.0)

    def test_hold_violation_means_scrap_without_plan(self, bins):
        topology = chain_topology()
        samples = samples_with_periods([9.0])
        samples.hold_values[0, 0] = -1.0  # hold violation on edge 0
        result = speed_binning(topology, samples, bins)
        assert result.untuned_scrap == 1


class TestTestCostModel:
    def test_net_gain_accounts_for_configuration_cost(self):
        bins = [SpeedBin("fast", 10.0, revenue=1.0), SpeedBin("slow", 14.0, revenue=0.5)]
        result = BinningResult(
            bins=bins,
            untuned_counts=[0, 2],
            tuned_counts=[2, 0],
            untuned_scrap=0,
            tuned_scrap=0,
            configuration_attempts=2,
            n_samples=2,
        )
        model = TestCostModel(cost_per_speed_test=0.0, cost_per_configuration=0.25)
        summary = model.evaluate(result)
        assert summary["revenue_untuned"] == pytest.approx(1.0)
        assert summary["revenue_tuned"] == pytest.approx(2.0)
        assert summary["net_gain_from_tuning"] == pytest.approx(0.5)
        assert summary["net_gain_per_chip"] == pytest.approx(0.25)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            TestCostModel(cost_per_speed_test=-1.0)


class TestBinningOnRealCircuit:
    def test_tuning_shifts_population_toward_faster_bins(self, small_design, small_samples):
        from repro.core import BufferInsertionFlow, FlowConfig
        from repro.core.compiled import ensure_compiled_system
        from repro.timing.period import sample_min_periods

        analysis = sample_min_periods(small_design, constraint_samples=small_samples)
        config = FlowConfig(n_samples=200, n_eval_samples=200, seed=5, target_sigma=0.0)
        result = BufferInsertionFlow(small_design, config).run()
        topology = ensure_compiled_system(small_design).topology
        bins = default_bins(analysis.mean, analysis.std, n_bins=4)
        step = result.plan.buffers[0].step if result.plan.buffers else 0.0
        binning = speed_binning(
            topology, small_samples, bins, plan=result.plan, step=step
        )
        # Tuning must not create scrap and must move chips toward faster bins.
        assert binning.tuned_scrap <= binning.untuned_scrap
        faster_untuned = sum(binning.untuned_counts[:2])
        faster_tuned = sum(binning.tuned_counts[:2])
        assert faster_tuned >= faster_untuned
        assert 0.0 <= binning.upgraded_fraction <= 1.0
