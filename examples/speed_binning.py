#!/usr/bin/env python3
"""Speed binning with post-silicon tuning (the paper's stated future work).

Manufactured chips are sorted into speed bins; faster bins sell for more.
Post-silicon clock tuning moves chips into faster bins at the price of
extra configuration effort at test time.  This example:

1. runs the buffer-insertion flow on a scaled benchmark,
2. bins a fresh population of chips with and without tuning,
3. evaluates the revenue / test-cost trade-off with a simple cost model.

Run with::

    python examples/speed_binning.py
"""

from __future__ import annotations

from repro.circuit.suite import build_suite_circuit
from repro.core import BufferInsertionFlow, FlowConfig
from repro.core.compiled import ensure_compiled_system
from repro.timing.period import sample_min_periods
from repro.tuning import TestCostModel, default_bins, speed_binning
from repro.variation.sampling import MonteCarloSampler


def main() -> None:
    design = build_suite_circuit("s9234", scale=0.2, seed=1)
    compiled = ensure_compiled_system(design)

    print("== inserting buffers at T = mu_T ==")
    config = FlowConfig(n_samples=500, n_eval_samples=500, seed=7, target_sigma=0.0)
    result = BufferInsertionFlow(design, config).run()
    print(f"   {result.plan.n_buffers} buffers, yield "
          f"{100 * result.original_yield:.1f} % -> {100 * result.improved_yield:.1f} %")

    print("== binning a fresh population of 1500 chips ==")
    sampler = MonteCarloSampler(design.variation_model, rng=42)
    samples = compiled.sample(sampler.sample(1500), sampler=sampler)
    analysis = sample_min_periods(design, constraint_samples=samples)
    bins = default_bins(analysis.mean, analysis.std, n_bins=4)
    step = result.plan.buffers[0].step if result.plan.buffers else 0.0
    binning = speed_binning(compiled.topology, samples, bins, plan=result.plan, step=step)
    print(binning.as_table())
    print(f"   chips upgraded to a faster bin by tuning: {100 * binning.upgraded_fraction:.1f} %")
    print(f"   configuration attempts spent            : {binning.configuration_attempts}")

    print("== revenue / test-cost trade-off ==")
    for config_cost in (0.0, 0.02, 0.1):
        model = TestCostModel(cost_per_speed_test=0.01, cost_per_configuration=config_cost)
        summary = model.evaluate(binning)
        print(
            f"   configuration cost {config_cost:5.2f}/attempt: "
            f"revenue {summary['revenue_untuned']:.0f} -> {summary['revenue_tuned']:.0f}, "
            f"net gain from tuning {summary['net_gain_from_tuning']:+.1f} "
            f"({summary['net_gain_per_chip']:+.3f} per chip)"
        )


if __name__ == "__main__":
    main()
