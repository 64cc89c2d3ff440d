"""Sequential constraint graph.

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

:func:`extract_constraint_graph` produces a
:class:`SequentialConstraintGraph`: one :class:`SequentialEdge` of scalar
canonical forms per connected flip-flop pair, the flip-flop names and the
per-edge flip-flop indices.  The skew tools (:mod:`repro.timing.skew`)
edit its edges.  It neither stacks nor samples: the design's one
array-native system, :class:`~repro.core.compiled.CompiledConstraintSystem`,
is compiled from it and evaluates whole sample batches into the
:class:`ConstraintSamples` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuit.design import CircuitDesign
from repro.obs.trace import span as trace_span
from repro.timing.graph import TimingGraph
from repro.timing.propagate import all_ff_pair_delay_forms
from repro.variation.canonical import CanonicalForm


@dataclass
class SequentialEdge:
    """One connected flip-flop pair with all timing quantities attached.

    Attributes
    ----------
    launch, capture:
        Flip-flop names (``i`` and ``j`` in the paper's notation).
    max_delay, min_delay:
        Canonical forms of the maximum / minimum combinational delay from
        launch to capture, *including* the launch flip-flop's clock-to-Q.
    setup, hold:
        Canonical forms of the capture flip-flop's setup and hold time.
    skew_launch, skew_capture:
        Static design clock skews of the two flip-flops.
    """

    launch: str
    capture: str
    max_delay: CanonicalForm
    min_delay: CanonicalForm
    setup: CanonicalForm
    hold: CanonicalForm
    skew_launch: float = 0.0
    skew_capture: float = 0.0

    @property
    def skew_difference(self) -> float:
        """``k_j - k_i``: capture skew minus launch skew."""
        return self.skew_capture - self.skew_launch

    @property
    def setup_quantity(self) -> CanonicalForm:
        """Canonical form of ``d_ij_max + s_j`` (everything the setup bound
        subtracts from ``T``)."""
        return self.max_delay + self.setup

    @property
    def hold_quantity(self) -> CanonicalForm:
        """Canonical form of ``d_ij_min - h_j``."""
        return self.min_delay - self.hold

    def nominal_setup_bound(self, period: float) -> float:
        """Nominal value of the setup bound ``x_i - x_j <= b`` at period ``T``."""
        return period - self.setup_quantity.mean + self.skew_difference

    def nominal_hold_bound(self) -> float:
        """Nominal value of the hold bound ``x_j - x_i <= b``."""
        return self.hold_quantity.mean - self.skew_difference

    def nominal_required_period(self) -> float:
        """Smallest period for which the nominal setup constraint holds at
        ``x_i = x_j = 0``."""
        return self.setup_quantity.mean - self.skew_difference


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


class SequentialConstraintGraph:
    """All sequential edges of a design, with flip-flop names and indices."""

    def __init__(self, design: CircuitDesign, edges: Sequence[SequentialEdge]) -> None:
        self.design = design
        self.edges: List[SequentialEdge] = list(edges)
        self.ff_names: List[str] = list(design.netlist.flip_flops)
        self.ff_index: Dict[str, int] = {ff: i for i, ff in enumerate(self.ff_names)}
        self.edge_launch_idx = np.array(
            [self.ff_index[e.launch] for e in self.edges], dtype=int
        )
        self.edge_capture_idx = np.array(
            [self.ff_index[e.capture] for e in self.edges], dtype=int
        )

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of sequential (flip-flop pair) edges."""
        return len(self.edges)

    @property
    def n_flip_flops(self) -> int:
        """Number of flip-flops in the design."""
        return len(self.ff_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SequentialConstraintGraph({self.design.name!r}, "
            f"ffs={self.n_flip_flops}, edges={self.n_edges})"
        )


def ensure_constraint_graph(
    design: CircuitDesign,
    timing_graph: Optional[TimingGraph] = None,
) -> SequentialConstraintGraph:
    """Return the design's cached constraint graph, extracting it on demand.

    The statistical propagation behind :func:`extract_constraint_graph` is
    the most expensive preprocessing step, so designs built by
    :mod:`repro.circuit.suite` carry a cached graph; this helper makes the
    cache transparent to callers.
    """
    cached = getattr(design, "cached_constraint_graph", None)
    if isinstance(cached, SequentialConstraintGraph):
        return cached
    graph = extract_constraint_graph(design, timing_graph)
    design.cached_constraint_graph = graph
    return graph


def extract_constraint_graph(
    design: CircuitDesign,
    timing_graph: Optional[TimingGraph] = None,
) -> SequentialConstraintGraph:
    """Build the sequential constraint graph of a design.

    Runs statistical propagation from every flip-flop and assembles one
    :class:`SequentialEdge` per connected flip-flop pair.
    """
    with trace_span("timing.extract", design=design.name):
        timing_graph = timing_graph or TimingGraph(design)
        pair_forms = all_ff_pair_delay_forms(timing_graph)

        setup_forms: Dict[str, CanonicalForm] = {}
        hold_forms: Dict[str, CanonicalForm] = {}
        edges: List[SequentialEdge] = []
        for (launch, capture), (max_form, min_form) in pair_forms.items():
            if capture not in setup_forms:
                setup_forms[capture] = timing_graph.setup_form(capture)
                hold_forms[capture] = timing_graph.hold_form(capture)
            edges.append(
                SequentialEdge(
                    launch=launch,
                    capture=capture,
                    max_delay=max_form,
                    min_delay=min_form,
                    setup=setup_forms[capture],
                    hold=hold_forms[capture],
                    skew_launch=design.clock_skew.skew(launch),
                    skew_capture=design.clock_skew.skew(capture),
                )
            )
        return SequentialConstraintGraph(design, edges)
