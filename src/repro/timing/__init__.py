"""Static and statistical timing analysis substrate.

* :mod:`repro.timing.graph` — builds the annotated timing graph of a
  design (combinational DAG with flip-flops split into launch / capture
  nodes, every node carrying nominal and canonical statistical delays).
* :mod:`repro.timing.propagate` — block-based arrival-time propagation:
  nominal max/min arrival times and per-flip-flop-pair canonical forms of
  the maximum and minimum combinational delay (the ``d`` and ``d-bar`` of
  the paper's constraints (1)–(2)).
* :mod:`repro.timing.constraints` — extraction of the design's compiled
  constraint system (:func:`extract_constraint_graph`: the stacked setup
  and hold quantities of every connected flip-flop pair, built from the
  sweep's arrays), plus the per-sample bound arithmetic of
  :class:`~repro.timing.constraints.ConstraintSamples`.  The system
  itself, its sampling and its cache live in :mod:`repro.core.compiled`.
* :mod:`repro.timing.skew` — hold-aware static skews and their
  application to a compiled constraint system.
* :mod:`repro.timing.period` — the Monte-Carlo distribution of the
  un-tuned minimum clock period.
"""

from repro.timing.constraints import extract_constraint_graph
from repro.timing.skew import apply_skews, hold_aware_random_skews
from repro.timing.graph import DelayAnnotation, TimingGraph
from repro.timing.period import PeriodAnalysis, sample_min_periods
from repro.timing.propagate import ff_pair_delay_forms, nominal_arrival_times

__all__ = [
    "TimingGraph",
    "DelayAnnotation",
    "extract_constraint_graph",
    "hold_aware_random_skews",
    "apply_skews",
    "ff_pair_delay_forms",
    "nominal_arrival_times",
    "PeriodAnalysis",
    "sample_min_periods",
]
