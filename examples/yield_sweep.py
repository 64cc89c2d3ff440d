#!/usr/bin/env python3
"""Yield-versus-target-period sweep (the paper's Table-I protocol).

For a chosen benchmark circuit the script runs the insertion flow at the
three target periods of the paper (``mu_T``, ``mu_T + sigma_T``,
``mu_T + 2 sigma_T``) and prints the Table-I style row for each, followed
by a comparison against the buffer-at-every-flip-flop upper bound and the
random-placement sanity baseline at the same buffer budget.

Run with::

    python examples/yield_sweep.py [circuit] [scale]

e.g. ``python examples/yield_sweep.py s13207 0.1``.
"""

from __future__ import annotations

import sys

from repro.analysis.tables import TableOneRow, format_table_one
from repro.baselines import every_ff_plan, random_plan
from repro.circuit.suite import build_suite_circuit, list_suite_circuits
from repro.core import BufferInsertionFlow, FlowConfig
from repro.yieldsim import YieldEstimator


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "s9234"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2
    if circuit not in list_suite_circuits():
        raise SystemExit(f"unknown circuit {circuit!r}; pick one of {list_suite_circuits()}")

    print(f"== circuit {circuit} (scale {scale:g}) ==")
    design = build_suite_circuit(circuit, scale=scale, seed=1)
    stats = design.netlist.stats()

    rows = []
    results = {}
    for sigma in (0.0, 1.0, 2.0):
        config = FlowConfig(n_samples=500, n_eval_samples=1000, seed=5, target_sigma=sigma)
        result = BufferInsertionFlow(design, config).run()
        results[sigma] = result
        rows.append(
            TableOneRow.from_flow_result(
                circuit, stats["flip_flops"], stats["gates"], sigma, result
            )
        )
    print(format_table_one(rows))

    print("\n== comparison at T = mu_T ==")
    result = results[0.0]
    estimator = YieldEstimator(design, n_samples=1000, rng=11)
    samples = estimator.draw_samples()
    proposed = estimator.evaluate_plan(result.plan, result.target_period, constraint_samples=samples)
    upper = estimator.evaluate_plan(
        every_ff_plan(design, result.target_period), result.target_period, constraint_samples=samples
    )
    rand = estimator.evaluate_plan(
        random_plan(design, result.target_period, max(1, result.plan.n_buffers), rng=3),
        result.target_period,
        constraint_samples=samples,
    )
    print(f"   no buffers              : {100 * proposed.original_yield:6.2f} % yield")
    print(
        f"   proposed ({result.plan.n_buffers:3d} buffers)  : "
        f"{100 * proposed.tuned_yield:6.2f} % yield"
    )
    print(
        f"   random   ({max(1, result.plan.n_buffers):3d} buffers)  : "
        f"{100 * rand.tuned_yield:6.2f} % yield"
    )
    print(
        f"   every FF ({design.netlist.n_flip_flops:3d} buffers)  : "
        f"{100 * upper.tuned_yield:6.2f} % yield (symmetric-range reference)"
    )


if __name__ == "__main__":
    main()
