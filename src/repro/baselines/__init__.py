"""Baseline buffer-insertion strategies.

The paper's implicit baselines are "no buffers" (the original yield) and
the statistical clock-tree tuning of reference [2] which places symmetric
tuning buffers by criticality.  This subpackage provides comparable
strategies so the benchmark harness can report who wins and by how much:

* :mod:`repro.baselines.every_ff` — a tuning buffer at every flip-flop
  with the full symmetric range (upper bound on achievable yield, maximal
  area);
* :mod:`repro.baselines.criticality` — buffers at the top-k statistically
  most critical flip-flops with symmetric ranges (a Tsai-2005-style
  heuristic);
* :mod:`repro.baselines.random_placement` — buffers at k random flip-flops
  (sanity baseline).

Each strategy only builds a :class:`~repro.core.results.BufferPlan`;
:func:`build_baseline_plan` selects one by name.  Campaigns evaluate
baseline plans through the same scheduler as the flow's plan, so the
comparisons parallelise the same way the main flow does.
"""

from repro.baselines.criticality import criticality_plan, flip_flop_criticality
from repro.baselines.every_ff import every_ff_plan
from repro.baselines.harness import BASELINE_CHOICES, build_baseline_plan
from repro.baselines.random_placement import random_plan

__all__ = [
    "BASELINE_CHOICES",
    "build_baseline_plan",
    "every_ff_plan",
    "criticality_plan",
    "flip_flop_criticality",
    "random_plan",
]
