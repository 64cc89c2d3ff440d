"""Benchmark: ablations of the design choices called out in DESIGN.md.

The paper motivates three mechanisms inside the flow; each ablation
removes one of them and measures the effect:

* **value concentration** (Sec. III-A3 / III-B2): without it the tuning
  ranges (``Ab``) grow;
* **asymmetric range windows** (Sec. II): restricting the proposed plan to
  symmetric windows of the same total width must not improve — and
  typically reduces — the rescued yield;
* **buffer keep-threshold**: keeping more, rarely-used buffers buys little
  extra yield (diminishing returns), which is why the paper's Nb stays
  tiny.
"""

from __future__ import annotations


from benchmarks.conftest import SETTINGS, get_design, run_once
from repro.core import BufferInsertionFlow, FlowConfig
from repro.core.results import Buffer, BufferPlan
from repro.yieldsim import YieldEstimator


def _flow(circuit: str, **overrides):
    design = get_design(circuit)
    config = FlowConfig(
        n_samples=SETTINGS.n_samples,
        n_eval_samples=SETTINGS.n_eval_samples,
        seed=11,
        target_sigma=0.0,
        **overrides,
    )
    return BufferInsertionFlow(design, config).run()


def test_ablation_concentration_reduces_ranges(benchmark):
    circuit = SETTINGS.circuits[0]
    with_concentration = run_once(benchmark, _flow, circuit)
    without_concentration = _flow(circuit, concentrate=False)
    print(
        f"\n{circuit}: average range with concentration "
        f"{with_concentration.plan.average_range_steps:.1f} steps, "
        f"without {without_concentration.plan.average_range_steps:.1f} steps"
    )
    if with_concentration.plan.n_buffers and without_concentration.plan.n_buffers:
        assert (
            with_concentration.plan.average_range_steps
            <= without_concentration.plan.average_range_steps + 1.0
        )
    # Yield should not suffer from concentrating the values.
    assert with_concentration.improved_yield >= without_concentration.improved_yield - 0.05


def test_ablation_asymmetric_windows_help(benchmark):
    circuit = SETTINGS.circuits[0]
    result = run_once(benchmark, _flow, circuit)
    design = get_design(circuit)
    estimator = YieldEstimator(design, n_samples=SETTINGS.n_eval_samples, rng=29)
    samples = estimator.draw_samples()

    # Symmetrised variant: same flip-flops, same total width, centred on 0.
    symmetric = BufferPlan(
        buffers=[
            Buffer(
                flip_flop=b.flip_flop,
                lower=-b.range_width / 2.0,
                upper=b.range_width / 2.0,
                step=b.step,
                usage_count=b.usage_count,
            )
            for b in result.plan.buffers
        ],
        target_period=result.target_period,
        groups=result.plan.groups,
    )
    asymmetric_yield = estimator.evaluate_plan(
        result.plan, result.target_period, constraint_samples=samples
    ).tuned_yield
    symmetric_yield = estimator.evaluate_plan(
        symmetric, result.target_period, constraint_samples=samples
    ).tuned_yield
    print(
        f"\n{circuit}: asymmetric windows {100 * asymmetric_yield:.1f} % yield, "
        f"symmetric windows of equal width {100 * symmetric_yield:.1f} %"
    )
    assert asymmetric_yield >= symmetric_yield - 0.02


def test_ablation_keep_threshold_diminishing_returns(benchmark):
    circuit = SETTINGS.circuits[0]
    strict = run_once(benchmark, _flow, circuit, keep_usage_fraction=0.05)
    lenient = _flow(circuit, keep_usage_fraction=0.005)
    print(
        f"\n{circuit}: keep-fraction 5 % -> Nb={strict.plan.n_buffers}, "
        f"Y={100 * strict.improved_yield:.1f} %; "
        f"keep-fraction 0.5 % -> Nb={lenient.plan.n_buffers}, "
        f"Y={100 * lenient.improved_yield:.1f} %"
    )
    assert lenient.plan.n_buffers >= strict.plan.n_buffers
    # The many extra buffers buy only a modest extra yield.
    extra_buffers = lenient.plan.n_buffers - strict.plan.n_buffers
    extra_yield = lenient.improved_yield - strict.improved_yield
    if extra_buffers > 0:
        assert extra_yield < 0.25
