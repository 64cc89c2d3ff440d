"""Compiled, array-native constraint system.

The statistical layer of the flow is compiled **once per design** into a
:class:`CompiledConstraintSystem`, the design's one view of its setup
and hold constraints: flat topology indices (flip-flop names, per-edge
launch/capture indices), the static skew difference of every edge and
the stacked setup/hold coefficient matrices of every sequential edge
(:class:`~repro.variation.arrayforms.ArrayForms`).
:func:`repro.timing.constraints.extract_constraint_graph` builds it
straight from the propagation sweep's per-pair stacks.  Everything the
hot path needs afterwards is a handful of matrix operations:

* drawing a Monte-Carlo batch and evaluating **all edges x all samples**
  is one matmul per quantity (:meth:`CompiledConstraintSystem.sample`);
* the nominal minimum period comes from the same stacks
  (:meth:`~CompiledConstraintSystem.nominal_min_period`), and so do the
  hold guard bands of :func:`repro.timing.skew.hold_aware_random_skews`
  and the scores of :func:`repro.baselines.criticality.flip_flop_criticality`;
* the per-sample solver and the post-silicon configurator consume the
  index-level :class:`~repro.core.sample_solver.ConstraintTopology` view;
* the execution engine keys its warm worker state by
  :meth:`CompiledConstraintSystem.fingerprint`, so repeated flow runs on
  the same design reuse worker pools instead of re-shipping state.

:func:`ensure_compiled_system` caches the system on the design
(``CircuitDesign.cached_compiled_system``), so the flow, the yield
estimator and the period analysis all read one system.
:func:`repro.timing.skew.apply_skews` stores a system with new skews in
that slot.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.sample_solver import ConstraintTopology
from repro.engine.cache import fingerprint_arrays
from repro.timing.constraints import ConstraintSamples, extract_constraint_graph
from repro.utils.rng import RngLike
from repro.variation.arrayforms import ArrayForms
from repro.variation.sampling import MonteCarloSampler, SampleBatch


class CompiledConstraintSystem:
    """Frozen array-native view of a design's sequential constraints.

    Built once per design by
    :func:`~repro.timing.constraints.extract_constraint_graph` (through
    the :func:`ensure_compiled_system` cache helper); holds no reference to
    the timing graph or the netlist's graph, so it is cheap to keep
    around and to ship to worker processes.

    Attributes
    ----------
    ff_names:
        Flip-flop names in topology index order.
    edge_launch / edge_capture:
        Per-edge flip-flop indices (``i`` / ``j`` of the paper).
    skew_difference:
        Per-edge static ``k_j - k_i``.
    setup_forms / hold_forms:
        Stacked canonical forms of ``d_ij_max + s_j`` and
        ``d_ij_min - h_j`` — one coefficient matrix each.
    """

    def __init__(
        self,
        design,
        ff_names,
        edge_launch: np.ndarray,
        edge_capture: np.ndarray,
        skew_difference: np.ndarray,
        setup_forms: ArrayForms,
        hold_forms: ArrayForms,
    ) -> None:
        self.design = design
        self.ff_names = list(ff_names)
        self.edge_launch = np.asarray(edge_launch, dtype=int)
        self.edge_capture = np.asarray(edge_capture, dtype=int)
        self.skew_difference = np.asarray(skew_difference, dtype=float)
        self.setup_forms = setup_forms
        self.hold_forms = hold_forms
        if not (
            self.edge_launch.shape[0]
            == self.edge_capture.shape[0]
            == self.skew_difference.shape[0]
            == setup_forms.n_forms
            == hold_forms.n_forms
        ):
            raise ValueError("edge arrays and stacked forms must agree in length")
        self._topology: Optional[ConstraintTopology] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of sequential edges."""
        return int(self.edge_launch.shape[0])

    @property
    def n_ffs(self) -> int:
        """Number of flip-flops."""
        return len(self.ff_names)

    @property
    def n_sources(self) -> int:
        """Number of shared variation sources."""
        return self.setup_forms.n_sources

    @property
    def topology(self) -> ConstraintTopology:
        """The index-level solver topology (cached)."""
        if self._topology is None:
            self._topology = ConstraintTopology(
                ff_names=list(self.ff_names),
                edge_launch=self.edge_launch.copy(),
                edge_capture=self.edge_capture.copy(),
            )
        return self._topology

    def fingerprint(self) -> str:
        """Stable content hash of the compiled system.

        Covers the topology indices, the skew vector and both coefficient
        matrices; used to key warm worker state in the engine, so two
        compilations of the same design interchange without re-shipping.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_arrays(
                self.edge_launch,
                self.edge_capture,
                self.skew_difference,
                self.setup_forms.coeffs,
                self.hold_forms.coeffs,
            )
        return self._fingerprint

    # ------------------------------------------------------------------
    def sample(
        self,
        batch: SampleBatch,
        sampler: Optional[MonteCarloSampler] = None,
        rng: RngLike = None,
    ) -> ConstraintSamples:
        """Evaluate all edges for all samples of a batch (one matmul each)."""
        sampler = sampler or MonteCarloSampler(self.design.variation_model, rng=rng)
        setup_values = sampler.evaluate_array(self.setup_forms, batch, rng=rng)
        hold_values = sampler.evaluate_array(self.hold_forms, batch, rng=rng)
        return ConstraintSamples(setup_values, hold_values, self.skew_difference)

    # ------------------------------------------------------------------
    def nominal_min_period(self) -> float:
        """Smallest period meeting every nominal setup constraint at x = 0."""
        if self.n_edges == 0:
            return 0.0
        return float(np.max(self.setup_forms.means - self.skew_difference))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledConstraintSystem({getattr(self.design, 'name', '?')!r}, "
            f"ffs={self.n_ffs}, edges={self.n_edges}, sources={self.n_sources})"
        )


def ensure_compiled_system(design) -> CompiledConstraintSystem:
    """Return the design's cached compiled system, extracting it on demand.

    The statistical propagation behind the extraction runs at most once
    per design, no matter how many flows, estimators or analyses consume
    the system.  The cache is ``design.cached_compiled_system``; the
    suite builder fills it, and ``apply_skews`` replaces it.
    """
    if design.cached_compiled_system is None:
        design.cached_compiled_system = extract_constraint_graph(design)
    return design.cached_compiled_system
