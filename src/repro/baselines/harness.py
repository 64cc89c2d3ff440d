"""Name-keyed plan builders for the baseline strategies.

Every baseline is "build a plan, evaluate its yield on fresh samples";
only the plan builder differs.  :func:`build_baseline_plan` maps a
strategy name to its builder, so the campaign subsystem can run
comparison strategies declaratively and evaluate their plans on the
same scheduler (and warm worker pool) as the flow's own plan.
"""

from __future__ import annotations

from typing import Optional

from repro.circuit.design import CircuitDesign
from repro.core.config import BufferSpec
from repro.core.results import BufferPlan
from repro.utils.rng import RngLike

#: Names accepted by :func:`build_baseline_plan` (and campaign specs).
BASELINE_CHOICES = ("every_ff", "criticality", "random")


def build_baseline_plan(
    name: str,
    design: CircuitDesign,
    target_period: float,
    n_buffers: int,
    buffer_spec: Optional[BufferSpec] = None,
    rng: RngLike = 0,
) -> BufferPlan:
    """Build the plan of one named baseline strategy.

    ``n_buffers`` caps the buffer count of the ``criticality`` and
    ``random`` strategies (typically set to the proposed flow's buffer
    count for an equal-area comparison); ``every_ff`` ignores it.
    ``rng`` only affects ``random``.
    """
    from repro.baselines.criticality import criticality_plan
    from repro.baselines.every_ff import every_ff_plan
    from repro.baselines.random_placement import random_plan

    if name == "every_ff":
        return every_ff_plan(design, target_period, buffer_spec=buffer_spec)
    if name == "criticality":
        return criticality_plan(design, target_period, n_buffers, buffer_spec=buffer_spec)
    if name == "random":
        return random_plan(
            design, target_period, n_buffers, buffer_spec=buffer_spec, rng=rng
        )
    raise ValueError(f"unknown baseline {name!r}; choose from {BASELINE_CHOICES}")
