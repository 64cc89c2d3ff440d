"""Per-chip buffer configuration and yield evaluation.

:class:`PostSiliconConfigurator` takes a finished
:class:`~repro.core.results.BufferPlan` and answers, for each manufactured
chip (Monte-Carlo sample), whether a feasible setting of the inserted
buffers exists.  Grouped buffers share a single tuning value; buffers keep
their discrete step grid; all other flip-flops are fixed at zero.

The feasibility test is the same difference-constraint engine used by the
design-time solver (:mod:`repro.core.difference`), so the evaluation is
exact with respect to the constraint model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.difference import (
    edge_rows,
    solve_difference_system,
    tighten_to_integers,
)
from repro.core.results import BufferPlan
from repro.core.sample_solver import ConstraintTopology, PerSampleSolver
from repro.timing.constraints import ConstraintSamples

_TOL = 1e-9


@dataclass
class TuningEvaluation:
    """Result of evaluating a buffer plan over a sample batch.

    Attributes
    ----------
    passed:
        Boolean per-sample flag: the chip meets timing after configuration.
    needed_tuning:
        Boolean per-sample flag: the chip failed at the neutral setting and
        required the buffers to be adjusted.
    yield_fraction:
        Fraction of passing chips.
    untuned_yield_fraction:
        Fraction of chips that pass without touching any buffer.
    """

    passed: np.ndarray
    needed_tuning: np.ndarray

    @property
    def yield_fraction(self) -> float:
        """Yield with post-silicon tuning."""
        return float(np.mean(self.passed)) if self.passed.size else 1.0

    @property
    def untuned_yield_fraction(self) -> float:
        """Yield without tuning (chips passing at the neutral setting)."""
        ok = self.passed & ~self.needed_tuning
        return float(np.mean(ok)) if self.passed.size else 1.0

    @property
    def rescued_fraction(self) -> float:
        """Fraction of chips rescued by tuning (failed untuned, pass tuned)."""
        rescued = self.passed & self.needed_tuning
        return float(np.mean(rescued)) if self.passed.size else 0.0


class PostSiliconConfigurator:
    """Configures a buffer plan for individual chips.

    Parameters
    ----------
    topology:
        The design's :class:`~repro.core.compiled.CompiledConstraintSystem`
        (as returned by :func:`~repro.core.compiled.ensure_compiled_system`;
        its topology view is used), or a bare
        :class:`~repro.core.sample_solver.ConstraintTopology`.  The
        samples passed to :meth:`evaluate` must come from the same
        system's edges.
    plan:
        The buffer plan produced by the insertion flow.
    step:
        Discrete tuning step in time units (0 disables the grid).
    """

    def __init__(self, topology, plan: BufferPlan, step: float = 0.0) -> None:
        if not isinstance(topology, ConstraintTopology):
            # A compiled constraint system: use its topology view.
            unwrapped = getattr(topology, "topology", None)
            if not isinstance(unwrapped, ConstraintTopology):
                raise TypeError(
                    "topology must be a ConstraintTopology or a compiled "
                    f"constraint system, got {type(topology).__name__}"
                )
            topology = unwrapped
        self.topology: ConstraintTopology = topology
        self.plan = plan
        self.step = float(step)

        ff_index = {name: i for i, name in enumerate(topology.ff_names)}
        self._var_of_ff: Dict[int, int] = {}
        self._var_lower: List[float] = []
        self._var_upper: List[float] = []

        groups: List[List[str]] = plan.groups or [[b.flip_flop] for b in plan.buffers]
        buffer_by_ff = {b.flip_flop: b for b in plan.buffers}
        for group in groups:
            members = [ff for ff in group if ff in buffer_by_ff]
            if not members:
                continue
            var_id = len(self._var_lower)
            lower = min(buffer_by_ff[ff].lower for ff in members)
            upper = max(buffer_by_ff[ff].upper for ff in members)
            self._var_lower.append(lower)
            self._var_upper.append(upper)
            for ff in members:
                if ff not in ff_index:
                    raise KeyError(f"buffered flip-flop {ff!r} is not in the topology")
                self._var_of_ff[ff_index[ff]] = var_id

        # Scope: every edge incident to a buffered flip-flop.
        scope: Set[int] = set()
        for ff_idx in self._var_of_ff:
            scope.update(topology.edges_of_ff[ff_idx])
        self._scope = sorted(scope)
        # Variable position of every flip-flop; unbuffered ones map to the
        # pinned reference position ``n_variables``.
        self._position = np.full(topology.n_ffs, self.n_variables)
        for ff_idx, var in self._var_of_ff.items():
            self._position[ff_idx] = var

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        """Number of independent tuning values (physical buffers)."""
        return len(self._var_lower)

    def _solver_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Variable bounds in solver units (steps when discrete)."""
        if self.step > 0:
            lower = [math.ceil(lo / self.step - 1e-9) for lo in self._var_lower]
            upper = [math.floor(hi / self.step + 1e-9) for hi in self._var_upper]
        else:
            lower = list(self._var_lower)
            upper = list(self._var_upper)
        return np.array(lower, dtype=float), np.array(upper, dtype=float)

    # ------------------------------------------------------------------
    def configure_sample(
        self,
        setup_bound: np.ndarray,
        hold_bound: np.ndarray,
    ) -> Tuple[bool, Optional[Dict[str, float]]]:
        """Try to configure the buffers for one chip.

        Parameters
        ----------
        setup_bound / hold_bound:
            Per-edge right-hand sides (time units) of the difference
            constraints at the target period.

        Returns
        -------
        (passes, assignment)
            ``passes`` tells whether the chip meets timing;  ``assignment``
            maps buffered flip-flops to their configured delays (``None``
            when the chip cannot be rescued, empty when no tuning needed).
        """
        violated = np.where((setup_bound < -_TOL) | (hold_bound < -_TOL))[0]
        if violated.size == 0:
            return True, {}

        launch, capture = self.topology.edge_launch, self.topology.edge_capture
        pinned = self.n_variables
        # A violated edge with no buffered endpoint cannot be repaired.
        if np.any(
            (self._position[launch[violated]] == pinned)
            & (self._position[capture[violated]] == pinned)
        ):
            return False, None
        if not self._var_lower:
            return False, None

        scale = self.step if self.step > 0 else 1.0
        scope = np.union1d(self._scope, violated)
        vi = self._position[launch[scope]]
        vj = self._position[capture[scope]]
        bs = setup_bound[scope] / scale
        bh = hold_bound[scope] / scale
        if self.step > 0:
            bs = tighten_to_integers(bs)
            bh = tighten_to_integers(bh)
        # Same physical buffer on both ends (grouping): the difference is
        # 0, so the edge adds no row and fails only if it is violated.
        same = vi == vj
        if np.any(same & ((bs < -_TOL) | (bh < -_TOL))):
            return False, None
        rows = edge_rows(vi[~same], vj[~same], bs[~same], bh[~same])

        lower, upper = self._solver_bounds()
        assignment = solve_difference_system(range(pinned), rows, lower, upper)
        if assignment is None:
            return False, None

        result: Dict[str, float] = {}
        for ff_idx, var in self._var_of_ff.items():
            value = assignment[var] * scale
            result[self.topology.ff_names[ff_idx]] = float(value)
        return True, result

    # ------------------------------------------------------------------
    def evaluate(
        self,
        constraint_samples: ConstraintSamples,
        period: float,
        executor=None,
    ) -> TuningEvaluation:
        """Evaluate the plan over a whole sample batch at a target period.

        The sweep is the engine's one evaluation sweep
        (:meth:`repro.engine.SampleScheduler.prepare_evaluate_plan`) on a
        solver over this configurator's topology: chips that pass at the
        neutral setting are filtered out vectorised, the rest are chunked
        over ``executor`` (serial by default).  Its warm worker state is
        keyed by the topology's content, so a process pool stays warm
        across plans.  Results are identical across executors.
        """
        from repro.engine import BatchProblem, SampleScheduler, run_pending

        scheduler = SampleScheduler(PerSampleSolver(self.topology), executor)
        batch = BatchProblem(
            constraint_samples.setup_bounds(period), constraint_samples.hold_bounds()
        )
        pending = scheduler.prepare_evaluate_plan(batch, self.plan, self.step)
        passed, needed = run_pending(pending, scheduler.executor)
        return TuningEvaluation(passed=passed, needed_tuning=needed)
