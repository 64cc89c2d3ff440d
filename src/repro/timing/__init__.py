"""Static and statistical timing analysis substrate.

* :mod:`repro.timing.graph` — builds the annotated timing graph of a
  design (combinational DAG with flip-flops split into launch / capture
  nodes, every node carrying nominal and canonical statistical delays).
* :mod:`repro.timing.propagate` — block-based arrival-time propagation:
  nominal max/min arrival times and per-flip-flop-pair canonical forms of
  the maximum and minimum combinational delay (the ``d`` and ``d-bar`` of
  the paper's constraints (1)–(2)).
* :mod:`repro.timing.constraints` — the sequential constraint graph: one
  :class:`SequentialEdge` of scalar canonical forms per connected
  flip-flop pair with everything needed to write the setup and hold
  constraints, plus the per-sample bound arithmetic of
  :class:`~repro.timing.constraints.ConstraintSamples`.  Stacking and
  sampling live in the compiled system (:mod:`repro.core.compiled`).
* :mod:`repro.timing.skew` — hold-aware static skews and their
  application to a constraint graph.
* :mod:`repro.timing.period` — the Monte-Carlo distribution of the
  un-tuned minimum clock period.
"""

from repro.timing.constraints import (
    SequentialConstraintGraph,
    SequentialEdge,
    ensure_constraint_graph,
    extract_constraint_graph,
)
from repro.timing.skew import apply_skews, hold_aware_random_skews
from repro.timing.graph import DelayAnnotation, TimingGraph
from repro.timing.period import PeriodAnalysis, sample_min_periods
from repro.timing.propagate import ff_pair_delay_forms, nominal_arrival_times

__all__ = [
    "TimingGraph",
    "DelayAnnotation",
    "SequentialEdge",
    "SequentialConstraintGraph",
    "extract_constraint_graph",
    "ensure_constraint_graph",
    "hold_aware_random_skews",
    "apply_skews",
    "ff_pair_delay_forms",
    "nominal_arrival_times",
    "PeriodAnalysis",
    "sample_min_periods",
]
