#!/usr/bin/env python3
"""Using the library on your own circuit (ISCAS89 ``.bench`` or hand-built).

The suite circuits are synthesised stand-ins for the paper's benchmarks,
but the flow works on any sequential netlist.  This example shows the two
entry points a downstream user has:

1. parse an ISCAS89 ``.bench`` description (here an inline pipelined
   multiplier-ish toy) and wrap it into a :class:`CircuitDesign`;
2. build a netlist programmatically with the :class:`Netlist` API.

Both designs then go through clock-period characterisation and buffer
insertion.

Run with::

    python examples/custom_circuit.py
"""

from __future__ import annotations

from repro.circuit.bench import parse_bench
from repro.circuit.design import CircuitDesign
from repro.circuit.library import default_library
from repro.circuit.netlist import Netlist
from repro.core import BufferInsertionFlow, FlowConfig, ensure_compiled_system
from repro.timing import apply_skews, hold_aware_random_skews

BENCH_TEXT = """
# a small 3-stage pipeline in ISCAS89 .bench format
INPUT(in0)
INPUT(in1)
INPUT(in2)
OUTPUT(out0)

r0 = DFF(s0)
r1 = DFF(s1)
r2 = DFF(s2)
r3 = DFF(s3)
r4 = DFF(s4)
r5 = DFF(s5)

a0 = NAND(in0, in1)
a1 = XOR(a0, in2)
a2 = AND(a1, in0)
s0 = NOT(a2)
s1 = NAND(a1, a2)

b0 = NAND(r0, r1)
b1 = XOR(b0, r0)
b2 = AND(b1, r1)
b3 = OR(b2, b0)
s2 = NOT(b3)
s3 = NAND(b3, b1)

c0 = XOR(r2, r3)
c1 = NAND(c0, r4)
c2 = AND(c1, r5)
c3 = OR(c2, c0)
c4 = XOR(c3, c1)
s4 = NOT(c4)
s5 = NAND(c4, c2)
out0 = AND(r4, r5)
"""


def bench_example() -> None:
    print("== 1. circuit from an ISCAS89 .bench description ==")
    library = default_library()
    netlist = parse_bench(BENCH_TEXT, name="pipeline3", library=library)
    print(f"   parsed: {netlist.stats()}")
    design = CircuitDesign.from_netlist(netlist, library=library, rng=3)

    # Add hold-aware useful skew, as the paper does for its benchmarks:
    # the skews read the design's constraint system, and apply_skews
    # stores the re-skewed system on the design for the flow.
    system = ensure_compiled_system(design)
    skews = hold_aware_random_skews(system, magnitude=1.5, rng=3)
    apply_skews(system, skews)

    config = FlowConfig(n_samples=400, n_eval_samples=800, seed=9, target_sigma=0.0)
    result = BufferInsertionFlow(design, config).run()
    print(
        f"   T={result.target_period:.2f}: {result.plan.n_buffers} buffers, "
        f"yield {100 * result.original_yield:.1f} % -> {100 * result.improved_yield:.1f} %"
    )


def handbuilt_example() -> None:
    print("== 2. circuit built programmatically ==")
    netlist = Netlist("ring_pipeline")
    netlist.add_primary_input("din")
    n_stages = 8
    for stage in range(n_stages):
        netlist.add_flip_flop(f"r{stage}")
    for stage in range(n_stages):
        # A deliberately unbalanced pipeline: even stages are deep, odd
        # stages are shallow, so criticality concentrates on even stages.
        depth = 6 if stage % 2 == 0 else 2
        source = f"r{(stage - 1) % n_stages}" if stage else "din"
        for level in range(depth):
            name = f"g{stage}_{level}"
            fanin = source if level == 0 else f"g{stage}_{level - 1}"
            netlist.add_gate(name, "NAND2" if level % 2 else "XOR2", [fanin, source])
        netlist.set_flip_flop_input(f"r{stage}", f"g{stage}_{depth - 1}")
    netlist.add_primary_output("dout", driver=f"g{n_stages - 1}_0")

    design = CircuitDesign.from_netlist(netlist, rng=5)
    config = FlowConfig(n_samples=400, n_eval_samples=800, seed=2, target_sigma=0.0)
    result = BufferInsertionFlow(design, config).run()
    print(f"   circuit: {netlist.stats()}")
    print(
        f"   T={result.target_period:.2f}: buffers at "
        f"{result.plan.buffered_flip_flops() or 'none'}"
    )
    print(
        f"   yield {100 * result.original_yield:.1f} % -> {100 * result.improved_yield:.1f} % "
        f"(+{100 * result.yield_improvement:.1f} points)"
    )


if __name__ == "__main__":
    bench_example()
    handbuilt_example()
