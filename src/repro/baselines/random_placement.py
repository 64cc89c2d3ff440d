"""Baseline: buffers at random flip-flops (sanity check).

Any sensible placement strategy must comfortably beat random placement at
equal buffer count; the benchmark harness uses this to show that the
proposed method's yield gains come from *where* the buffers sit, not
merely from how many there are.
"""

from __future__ import annotations

from typing import Optional

from repro.circuit.design import CircuitDesign
from repro.core.config import BufferSpec
from repro.core.results import Buffer, BufferPlan
from repro.utils.rng import RngLike, ensure_rng


def random_plan(
    design: CircuitDesign,
    target_period: float,
    n_buffers: int,
    buffer_spec: Optional[BufferSpec] = None,
    rng: RngLike = None,
) -> BufferPlan:
    """Buffer plan with ``n_buffers`` symmetric buffers at random flip-flops."""
    if n_buffers < 0:
        raise ValueError("n_buffers must be non-negative")
    spec = buffer_spec or BufferSpec()
    generator = ensure_rng(rng)
    max_range = spec.max_range(target_period)
    step = spec.step_size(target_period) if spec.discrete else 0.0
    half = max_range / 2.0

    flip_flops = list(design.netlist.flip_flops)
    n_buffers = min(n_buffers, len(flip_flops))
    chosen = generator.choice(len(flip_flops), size=n_buffers, replace=False) if n_buffers else []
    buffers = [
        Buffer(flip_flop=flip_flops[int(i)], lower=-half, upper=half, step=step)
        for i in chosen
    ]
    return BufferPlan(buffers=buffers, target_period=float(target_period))
