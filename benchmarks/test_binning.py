"""Benchmark: clock binning with tuned buffers (paper Sec. V, future work).

The paper's conclusion points to clock binning and its test-cost trade-off
as the follow-up problem.  This harness quantifies it on the reproduction:
the buffer plan produced at ``T = mu_T`` is used to re-bin a fresh chip
population, and the shift of the bin populations plus the configuration
effort is reported.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SETTINGS, get_design, run_once
from repro.core import BufferInsertionFlow, FlowConfig
from repro.core.compiled import ensure_compiled_system
from repro.timing.period import sample_min_periods
from repro.tuning import TestCostModel, default_bins, speed_binning
from repro.variation.sampling import MonteCarloSampler


def _run(circuit: str):
    design = get_design(circuit)
    compiled = ensure_compiled_system(design)
    config = FlowConfig(
        n_samples=SETTINGS.n_samples, n_eval_samples=200, seed=7, target_sigma=0.0
    )
    result = BufferInsertionFlow(design, config).run()

    sampler = MonteCarloSampler(design.variation_model, rng=77)
    samples = compiled.sample(sampler.sample(SETTINGS.n_eval_samples), sampler=sampler)
    analysis = sample_min_periods(design, constraint_samples=samples)
    bins = default_bins(analysis.mean, analysis.std, n_bins=4)
    step = result.plan.buffers[0].step if result.plan.buffers else 0.0
    binning = speed_binning(compiled.topology, samples, bins, plan=result.plan, step=step)
    return binning


@pytest.mark.parametrize("circuit", SETTINGS.circuits[:2])
def test_binning_with_tuning(benchmark, circuit):
    binning = run_once(benchmark, _run, circuit)
    print(f"\n{circuit}:")
    print(binning.as_table())
    print(
        f"upgraded {100 * binning.upgraded_fraction:.1f} % of chips with "
        f"{binning.configuration_attempts} configuration attempts"
    )
    summary = TestCostModel(cost_per_speed_test=0.01, cost_per_configuration=0.02).evaluate(binning)
    print(f"net revenue gain from tuning: {summary['net_gain_from_tuning']:+.1f}")

    # Shape: tuning never increases scrap, never empties the fast bins, and
    # upgrades a measurable fraction of the population.
    assert binning.tuned_scrap <= binning.untuned_scrap
    assert sum(binning.tuned_counts[:2]) >= sum(binning.untuned_counts[:2])
    assert binning.upgraded_fraction >= 0.0
