"""Benchmark: proposed method versus baseline placements.

Not a table in the paper, but the comparison its introduction motivates:
post-silicon tuning only pays off if a *few well-chosen* buffers recover
most of the yield that tuning everywhere would recover, and clearly more
than naively placed buffers.  The harness reports, at ``T = mu_T``:

* yield without buffers,
* yield with the proposed plan (Nb buffers),
* yield with Nb random buffers,
* yield with Nb criticality-ranked buffers (Tsai-2005-style reference [2]),
* yield with a buffer at every flip-flop (symmetric-range reference).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SETTINGS, get_design, run_once
from repro.baselines import criticality_plan, every_ff_plan, random_plan
from repro.core import BufferInsertionFlow, FlowConfig
from repro.yieldsim import YieldEstimator


def _compare(circuit: str):
    design = get_design(circuit)
    config = FlowConfig(
        n_samples=SETTINGS.n_samples, n_eval_samples=SETTINGS.n_eval_samples, seed=5, target_sigma=0.0
    )
    result = BufferInsertionFlow(design, config).run()
    period = result.target_period
    budget = max(1, result.plan.n_buffers)

    estimator = YieldEstimator(design, n_samples=SETTINGS.n_eval_samples, rng=23)
    samples = estimator.draw_samples()
    def evaluate(plan):
        return estimator.evaluate_plan(plan, period, constraint_samples=samples)

    return {
        "circuit": circuit,
        "n_buffers": budget,
        "original": evaluate(result.plan).original_yield,
        "proposed": evaluate(result.plan).tuned_yield,
        "random": evaluate(random_plan(design, period, budget, rng=3)).tuned_yield,
        "criticality": evaluate(criticality_plan(design, period, budget)).tuned_yield,
        "every_ff": evaluate(every_ff_plan(design, period)).tuned_yield,
    }


@pytest.mark.parametrize("circuit", SETTINGS.circuits[: 3 if not SETTINGS.full else None])
def test_baseline_comparison(benchmark, circuit):
    report = run_once(benchmark, _compare, circuit)
    print(
        f"\n{circuit} (Nb={report['n_buffers']}): "
        f"none {100 * report['original']:.1f} %, "
        f"proposed {100 * report['proposed']:.1f} %, "
        f"criticality {100 * report['criticality']:.1f} %, "
        f"random {100 * report['random']:.1f} %, "
        f"every-FF {100 * report['every_ff']:.1f} %"
    )
    # Who wins: the proposed placement beats random placement at the same
    # budget and is competitive with (or better than) the criticality
    # heuristic; everything beats no buffers.
    assert report["proposed"] >= report["original"]
    assert report["proposed"] >= report["random"] - 0.02
    assert report["proposed"] >= report["criticality"] - 0.05
