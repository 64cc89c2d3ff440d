"""Clock-period analysis.

The paper's experimental protocol (Sec. IV) first runs Monte-Carlo
simulation to obtain the mean ``mu_T`` and standard deviation ``sigma_T``
of the circuit's minimum clock period *without* tuning buffers; target
periods ``mu_T``, ``mu_T + sigma_T`` and ``mu_T + 2 sigma_T`` then
correspond to original yields of roughly 50 %, 84.13 % and 97.72 %.

This module provides the sample-based version of that analysis.  The
nominal and statistical (canonical SSTA) minimum periods are methods of
the design's compiled constraint system
(:meth:`~repro.core.compiled.CompiledConstraintSystem.nominal_min_period`
and :meth:`~repro.core.compiled.CompiledConstraintSystem.statistical_period_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.circuit.design import CircuitDesign
from repro.timing.constraints import ConstraintSamples
from repro.utils.rng import RngLike
from repro.variation.sampling import MonteCarloSampler


@dataclass
class PeriodAnalysis:
    """Result of a Monte-Carlo clock-period analysis.

    Attributes
    ----------
    mean:
        Mean minimum period ``mu_T`` over the samples.
    std:
        Standard deviation ``sigma_T``.
    periods:
        Per-sample minimum period (setup-limited, no tuning).
    hold_feasible:
        Per-sample flag whether all hold constraints hold without tuning.
    """

    mean: float
    std: float
    periods: np.ndarray
    hold_feasible: np.ndarray

    def target_period(self, n_sigma: float = 0.0) -> float:
        """``mu_T + n_sigma * sigma_T`` — the paper's three targets use
        ``n_sigma`` of 0, 1 and 2."""
        return float(self.mean + n_sigma * self.std)

    def yield_at(self, period: float, require_hold: bool = True) -> float:
        """Fraction of samples meeting ``period`` without any tuning."""
        ok = self.periods <= period
        if require_hold:
            ok = ok & self.hold_feasible
        return float(np.mean(ok))

    def quantile_period(self, q: float) -> float:
        """Period at which the un-tuned yield equals ``q``."""
        return float(np.quantile(self.periods, q))


def sample_min_periods(
    design: CircuitDesign,
    n_samples: int = 1000,
    rng: RngLike = 0,
    constraint_samples: Optional[ConstraintSamples] = None,
) -> PeriodAnalysis:
    """Monte-Carlo distribution of the un-tuned minimum clock period.

    Either reuses pre-evaluated ``constraint_samples`` or draws
    ``n_samples`` fresh samples and evaluates them through the design's
    compiled constraint system (one matmul per quantity).
    """
    if constraint_samples is None:
        # repro.core sits above repro.timing, so import at call time.
        from repro.core.compiled import ensure_compiled_system

        sampler = MonteCarloSampler(design.variation_model, rng=rng)
        batch = sampler.sample(n_samples)
        constraint_samples = ensure_compiled_system(design).sample(batch, sampler=sampler)
    periods = constraint_samples.min_setup_period_per_sample()
    hold_ok = constraint_samples.hold_feasible_per_sample()
    return PeriodAnalysis(
        mean=float(np.mean(periods)),
        std=float(np.std(periods)),
        periods=periods,
        hold_feasible=hold_ok,
    )
