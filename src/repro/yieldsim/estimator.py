"""Yield estimation front end.

:class:`YieldEstimator` bundles the Monte-Carlo machinery needed to follow
the paper's experimental protocol (Sec. IV):

1. sample the un-tuned minimum clock period to obtain ``mu_T`` and
   ``sigma_T`` (original yields of ~50 %, ~84 % and ~98 % at the three
   target periods);
2. evaluate the yield of a finished buffer plan on a *fresh* batch of
   samples via the post-silicon configurator.

Both steps read the design's compiled constraint system
(:func:`~repro.core.compiled.ensure_compiled_system`): batches are drawn
and evaluated through its stacked matrices, and the configurator solves
on its topology.
"""

from __future__ import annotations

from typing import Optional

from repro.circuit.design import CircuitDesign
from repro.core.compiled import ensure_compiled_system
from repro.core.results import BufferPlan
from repro.timing.constraints import ConstraintSamples
from repro.timing.period import PeriodAnalysis, sample_min_periods
from repro.tuning.configurator import PostSiliconConfigurator
from repro.utils.rng import RngLike, ensure_rng
from repro.variation.sampling import MonteCarloSampler
from repro.yieldsim.report import YieldReport


class YieldEstimator:
    """Monte-Carlo yield estimation for a design.

    Parameters
    ----------
    design:
        The circuit design under analysis; its compiled constraint
        system is built (or reused) on construction.
    n_samples:
        Default sample count for estimates.
    rng:
        Seed or generator for the sample batches.
    executor:
        Execution backend for the evaluation sweeps: an executor name
        (``"serial"``/``"processes"``), an existing
        :class:`repro.engine.Executor` (not closed by the estimator), or
        ``None`` for serial.  Yields are identical across executors.
        Executors created *by name* are owned by the estimator — call
        :meth:`close` (or use the estimator as a context manager) to
        release their worker pools.
    jobs:
        Worker count when ``executor`` is given by name.
    """

    def __init__(
        self,
        design: CircuitDesign,
        n_samples: int = 2000,
        rng: RngLike = 0,
        executor=None,
        jobs: Optional[int] = None,
    ) -> None:
        from repro.engine import Executor, create_executor

        self.design = design
        self.compiled = ensure_compiled_system(design)
        self.n_samples = int(n_samples)
        self._rng = ensure_rng(rng)
        self._sampler = MonteCarloSampler(design.variation_model, rng=self._rng)
        self._owns_executor = executor is not None and not isinstance(executor, Executor)
        self.executor = create_executor(executor, jobs) if executor is not None else None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release a worker pool created by the estimator (idempotent).

        Only executors the estimator built itself (passed by name) are
        closed; externally-owned executor instances are left running.
        """
        if self._owns_executor and self.executor is not None:
            self.executor.close()
            self.executor = None
        self._owns_executor = False

    def __enter__(self) -> "YieldEstimator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def draw_samples(self, n_samples: Optional[int] = None) -> ConstraintSamples:
        """Draw a fresh batch of chips and evaluate all edge quantities
        (through the compiled system: one matmul per quantity)."""
        n = int(n_samples or self.n_samples)
        batch = self._sampler.sample(n)
        return self.compiled.sample(batch, sampler=self._sampler)

    def period_analysis(
        self, constraint_samples: Optional[ConstraintSamples] = None
    ) -> PeriodAnalysis:
        """Distribution of the un-tuned minimum clock period."""
        samples = constraint_samples or self.draw_samples()
        return sample_min_periods(self.design, constraint_samples=samples)

    # ------------------------------------------------------------------
    def original_yield(
        self,
        period: float,
        constraint_samples: Optional[ConstraintSamples] = None,
    ) -> float:
        """Yield without tuning buffers at a target period."""
        samples = constraint_samples or self.draw_samples()
        analysis = self.period_analysis(samples)
        return analysis.yield_at(period)

    def evaluate_plan(
        self,
        plan: BufferPlan,
        period: float,
        constraint_samples: Optional[ConstraintSamples] = None,
        step: Optional[float] = None,
    ) -> YieldReport:
        """Yield with a buffer plan at a target period (fresh samples).

        Parameters
        ----------
        step:
            Discrete tuning step in time units; defaults to the step stored
            in the plan's buffers (0 when continuous).
        """
        samples = constraint_samples or self.draw_samples()
        analysis = self.period_analysis(samples)
        original = analysis.yield_at(period)
        if step is None:
            step = plan.buffers[0].step if plan.buffers else 0.0
        configurator = PostSiliconConfigurator(self.compiled, plan, step=step)
        evaluation = configurator.evaluate(samples, period, executor=self.executor)
        return YieldReport(
            target_period=float(period),
            original_yield=float(original),
            tuned_yield=float(evaluation.yield_fraction),
            n_samples=samples.n_samples,
            mu_period=float(analysis.mean),
            sigma_period=float(analysis.std),
        )
