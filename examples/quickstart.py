#!/usr/bin/env python3
"""Quickstart: insert post-silicon clock-tuning buffers into one benchmark.

This walks through the complete pipeline of the DATE 2016 paper on a scaled
version of the ``s9234`` benchmark:

1. build the circuit (netlist, placement, hold-aware clock skews,
   process-variation model),
2. characterise the un-tuned minimum clock period (``mu_T``, ``sigma_T``),
3. run the three-step sampling-based buffer insertion at the tight target
   period ``T = mu_T``,
4. report the buffer locations, ranges and the yield improvement.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.circuit.suite import build_suite_circuit
from repro.core import BufferInsertionFlow, FlowConfig
from repro.timing import sample_min_periods


def main() -> None:
    print("== building circuit (scaled s9234) ==")
    design = build_suite_circuit("s9234", scale=0.25, seed=1)
    stats = design.netlist.stats()
    print(f"   flip-flops: {stats['flip_flops']}, gates: {stats['gates']}")

    print("== characterising the un-tuned clock period ==")
    analysis = sample_min_periods(design, n_samples=1000, rng=7)
    print(f"   mu_T = {analysis.mean:.2f}, sigma_T = {analysis.std:.2f}")
    for n_sigma in (0, 1, 2):
        period = analysis.target_period(n_sigma)
        print(
            f"   yield without buffers at mu_T+{n_sigma}sigma (T={period:.2f}): "
            f"{100 * analysis.yield_at(period):.1f} %"
        )

    print("== running sampling-based buffer insertion at T = mu_T ==")
    # The sample sweeps fan out over the process-pool executor of
    # repro.engine; results are bit-identical to executor="serial".
    config = FlowConfig(
        n_samples=600, n_eval_samples=1500, seed=7, target_sigma=0.0, executor="processes"
    )
    result = BufferInsertionFlow(design, config).run()

    print(f"   target period          : {result.target_period:.2f}")
    print(f"   inserted buffers (Nb)  : {result.plan.n_buffers}")
    print(f"   physical buffers       : {result.plan.n_physical_buffers}")
    print(f"   average range (steps)  : {result.plan.average_range_steps:.1f} / 20")
    print(f"   yield without buffers  : {100 * result.original_yield:.2f} %")
    print(f"   yield with buffers     : {100 * result.improved_yield:.2f} %")
    print(f"   yield improvement (Yi) : {100 * result.yield_improvement:.2f} %")
    print(f"   runtime                : {result.total_runtime:.1f} s")
    solved = sum(s["n_dispatched"] for s in result.engine_stats.values())
    hits = sum(s["n_cache_hits"] for s in result.engine_stats.values())
    print(f"   engine                 : {solved:.0f} sample solves, {hits:.0f} cache hits")

    print("== buffer details ==")
    for buffer in result.plan.buffers:
        print(
            f"   {buffer.flip_flop:>10}: range [{buffer.lower:+.2f}, {buffer.upper:+.2f}] "
            f"({buffer.range_steps:.0f} steps), tuned in {buffer.usage_count} training samples, "
            f"group {buffer.group}"
        )


if __name__ == "__main__":
    main()
