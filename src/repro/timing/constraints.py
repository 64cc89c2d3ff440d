"""Sequential constraints: extraction and per-sample bounds.

For two flip-flops ``i`` (launch) and ``j`` (capture) connected by
combinational logic, the paper's timing constraints with clock tuning
buffers are (eq. (1)–(2))::

    x_i + d_ij_max <= x_j + T - s_j      (setup)
    x_i + d_ij_min >= x_j + h_j          (hold)

With static design clock skews ``k_i`` / ``k_j`` added to both sides and
rewritten as *difference constraints* on the tuning values::

    x_i - x_j <= T - s_j - d_ij_max + (k_j - k_i)      =: setup bound
    x_j - x_i <= d_ij_min - h_j + (k_i - k_j)          =: hold bound

All delay quantities (``d_ij_max``, ``d_ij_min``, ``s_j``, ``h_j``) are
statistical; a Monte-Carlo sample fixes them to numbers, which turns every
edge into two plain difference constraints.

:func:`extract_constraint_graph` builds the design's one constraint
system, a :class:`~repro.core.compiled.CompiledConstraintSystem`: the
propagation sweep's per-pair delay stacks become the stacked setup
quantities ``d_ij_max + s_j`` and hold quantities ``d_ij_min - h_j`` of
every connected flip-flop pair, next to the pairs' flip-flop indices and
the static skew differences ``k_j - k_i``.  The compiled system
evaluates whole sample batches into the :class:`ConstraintSamples`
defined here, which hold the per-sample bound arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.circuit.design import CircuitDesign
from repro.obs.trace import span as trace_span
from repro.timing.graph import TimingGraph
from repro.timing.propagate import all_ff_pair_delay_forms
from repro.variation.arrayforms import ArrayForms

if TYPE_CHECKING:  # repro.core sits above repro.timing
    from repro.core.compiled import CompiledConstraintSystem


@dataclass
class ConstraintSamples:
    """Per-sample values of every edge's setup and hold quantities.

    Attributes
    ----------
    setup_values:
        Array ``(n_edges, n_samples)`` of sampled ``d_ij_max + s_j``.
    hold_values:
        Array ``(n_edges, n_samples)`` of sampled ``d_ij_min - h_j``.
    skew_difference:
        Array ``(n_edges,)`` of static ``k_j - k_i`` per edge.
    """

    setup_values: np.ndarray
    hold_values: np.ndarray
    skew_difference: np.ndarray

    def __post_init__(self) -> None:
        self.setup_values = np.asarray(self.setup_values, dtype=float)
        self.hold_values = np.asarray(self.hold_values, dtype=float)
        self.skew_difference = np.asarray(self.skew_difference, dtype=float)
        if self.setup_values.shape != self.hold_values.shape:
            raise ValueError("setup and hold sample arrays must have the same shape")
        if self.skew_difference.shape[0] != self.setup_values.shape[0]:
            raise ValueError("skew_difference length must equal the number of edges")

    @property
    def n_edges(self) -> int:
        """Number of sequential edges."""
        return int(self.setup_values.shape[0])

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples."""
        return int(self.setup_values.shape[1])

    # ------------------------------------------------------------------
    def setup_bounds(self, period: float) -> np.ndarray:
        """Right-hand sides of the setup difference constraints
        ``x_i - x_j <= b`` for every edge and sample, at clock period ``T``.

        A negative entry means the corresponding constraint is violated
        when no tuning is applied (``x = 0``).
        """
        return period + self.skew_difference[:, None] - self.setup_values

    def hold_bounds(self) -> np.ndarray:
        """Right-hand sides of the hold difference constraints
        ``x_j - x_i <= b`` for every edge and sample (period independent)."""
        return self.hold_values - self.skew_difference[:, None]

    def min_setup_period_per_sample(self) -> np.ndarray:
        """Per-sample minimum period satisfying all setup constraints at
        ``x = 0`` (the sample's un-tuned clock period)."""
        if self.n_edges == 0:
            return np.zeros(self.n_samples)
        return np.max(self.setup_values - self.skew_difference[:, None], axis=0)

    def hold_feasible_per_sample(self) -> np.ndarray:
        """Boolean per-sample flag: all hold constraints satisfied at ``x = 0``."""
        if self.n_edges == 0:
            return np.ones(self.n_samples, dtype=bool)
        return np.all(self.hold_bounds() >= 0.0, axis=0)


def extract_constraint_graph(
    design: CircuitDesign,
    timing_graph: Optional[TimingGraph] = None,
) -> "CompiledConstraintSystem":
    """Build the design's compiled constraint system.

    Runs statistical propagation from every flip-flop once.  Every
    connected pair's setup quantity is its max delay plus the capture
    flip-flop's setup form, its hold quantity its min delay minus the
    capture's hold form (independent terms in quadrature), and its skew
    difference ``k_j - k_i`` comes from ``design.clock_skew``.  Edges
    keep the sweep's launch-major order.
    """
    # repro.core sits above repro.timing, so import at call time.
    from repro.core.compiled import CompiledConstraintSystem

    with trace_span("timing.extract", design=design.name):
        timing_graph = timing_graph or TimingGraph(design)
        pairs = all_ff_pair_delay_forms(timing_graph)
        ff_names = list(design.netlist.flip_flops)
        n_sources = design.variation_model.n_shared_sources
        setup = ArrayForms.from_forms(map(timing_graph.setup_form, ff_names), n_sources)
        hold = ArrayForms.from_forms(map(timing_graph.hold_form, ff_names), n_sources)
        skews = np.array([design.clock_skew.skew(ff) for ff in ff_names])
        return CompiledConstraintSystem(
            design=design,
            ff_names=ff_names,
            edge_launch=pairs.launch,
            edge_capture=pairs.capture,
            skew_difference=skews[pairs.capture] - skews[pairs.launch],
            setup_forms=pairs.max_forms.add(ArrayForms(setup.coeffs[pairs.capture])),
            hold_forms=pairs.min_forms.subtract(ArrayForms(hold.coeffs[pairs.capture])),
        )
