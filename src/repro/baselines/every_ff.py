"""Baseline: a tuning buffer at every flip-flop.

This is the most expensive possible insertion (area proportional to the
flip-flop count) and provides an upper bound on the yield any placement
strategy can reach with the given buffer hardware.  The proposed method's
value proposition is reaching a comparable yield with a tiny fraction of
these buffers.
"""

from __future__ import annotations

from typing import Optional

from repro.circuit.design import CircuitDesign
from repro.core.config import BufferSpec
from repro.core.results import Buffer, BufferPlan


def every_ff_plan(
    design: CircuitDesign,
    target_period: float,
    buffer_spec: Optional[BufferSpec] = None,
) -> BufferPlan:
    """Buffer plan with a symmetric full-range buffer at every flip-flop."""
    spec = buffer_spec or BufferSpec()
    max_range = spec.max_range(target_period)
    step = spec.step_size(target_period) if spec.discrete else 0.0
    half = max_range / 2.0
    buffers = [
        Buffer(flip_flop=ff, lower=-half, upper=half, step=step, usage_count=0)
        for ff in design.netlist.flip_flops
    ]
    return BufferPlan(buffers=buffers, target_period=float(target_period))
