"""Hold-aware static clock-skew assignment.

The paper's experimental setup adds clock skews to the benchmark circuits
"so that they have more critical paths".  Arbitrary random skews, however,
would create massive nominal *hold* violations (short register-to-register
paths cannot tolerate a large positive capture-minus-launch skew), which no
amount of clock-period relaxation can repair — the circuits would have zero
yield regardless of buffering.  Real designs therefore assign useful skew
under hold constraints (or fix holds with delay padding afterwards).

:func:`hold_aware_random_skews` reproduces that behaviour: it draws random
per-flip-flop skews of the requested magnitude and then projects them onto
the feasible region of the difference constraints

    k_j - k_i <= hold_margin_ij      for every sequential edge (i, j)

where ``hold_margin_ij`` is the nominal hold quantity minus a guard band of
``n_sigma`` standard deviations, both read from the compiled system's
stacked hold quantities.  The projection is an iterative
Gauss-Seidel repair with a global shrink fallback, which always terminates
because the all-zero skew assignment is feasible whenever the un-skewed
design meets hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.circuit.clockskew import ClockSkewMap
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # repro.core sits above repro.timing
    from repro.core.compiled import CompiledConstraintSystem


def hold_aware_random_skews(
    system: "CompiledConstraintSystem",
    magnitude: float,
    rng: RngLike = None,
    n_sigma: float = 3.0,
    extra_margin: float = 0.0,
    max_iterations: int = 200,
    shrink_factor: float = 0.8,
) -> ClockSkewMap:
    """Draw random static skews that respect nominal hold constraints.

    Parameters
    ----------
    system:
        Compiled constraint system of the design (its skews are ignored;
        only the statistical hold quantities are used).
    magnitude:
        Half-width of the initial uniform skew distribution (time units).
    n_sigma:
        Statistical guard band: the allowed capture-minus-launch skew is
        reduced by ``n_sigma`` standard deviations of the edge's hold
        quantity, so that hold violations stay rare under variation.
    extra_margin:
        Additional deterministic guard band (time units).
    max_iterations:
        Iteration budget of the Gauss-Seidel repair before the global
        shrink fallback kicks in.
    shrink_factor:
        Factor applied to all skews when the repair does not converge.
    """
    check_non_negative(magnitude, "magnitude")
    check_non_negative(n_sigma, "n_sigma")
    generator = ensure_rng(rng)

    ff_names = system.ff_names
    n_ffs = len(ff_names)
    skews = generator.uniform(-magnitude, magnitude, size=n_ffs)
    if magnitude == 0.0 or system.n_edges == 0:
        return ClockSkewMap({ff: float(s) for ff, s in zip(ff_names, skews, strict=True)})

    holds = system.hold_forms
    limits = holds.means - n_sigma * holds.stds() - extra_margin
    # Edges that violate hold even with zero skew cannot be repaired by skew
    # assignment; they keep a zero allowance so the repair does not chase them.
    limits = np.maximum(limits, 0.0)

    skews = _project_onto_constraints(
        skews, system.edge_launch, system.edge_capture, limits, max_iterations, shrink_factor
    )
    return ClockSkewMap({ff: float(s) for ff, s in zip(ff_names, skews, strict=True)})


def _project_onto_constraints(
    skews: np.ndarray,
    launch_idx: np.ndarray,
    capture_idx: np.ndarray,
    limits: np.ndarray,
    max_iterations: int,
    shrink_factor: float,
) -> np.ndarray:
    """Iteratively repair ``skews`` until ``k_j - k_i <= limit`` on all edges."""
    skews = skews.copy()
    for _ in range(20):  # outer shrink loop
        converged = False
        for _ in range(max_iterations):
            diff = skews[capture_idx] - skews[launch_idx]
            violation = diff - limits
            violated = violation > 1e-9
            if not np.any(violated):
                converged = True
                break
            # Move both end points toward each other by half the violation.
            # Accumulate adjustments per flip-flop (several edges may touch
            # the same flip-flop within one sweep).
            adjust = np.zeros_like(skews)
            counts = np.zeros_like(skews)
            v = violation[violated]
            np.add.at(adjust, capture_idx[violated], -0.5 * v)
            np.add.at(adjust, launch_idx[violated], 0.5 * v)
            np.add.at(counts, capture_idx[violated], 1.0)
            np.add.at(counts, launch_idx[violated], 1.0)
            counts = np.maximum(counts, 1.0)
            skews = skews + adjust / counts
        if converged:
            break
        skews *= shrink_factor
    else:  # pragma: no cover - defensive
        skews[:] = 0.0

    # Final exactness pass: clamp any residual violations edge by edge.
    for _ in range(3):
        diff = skews[capture_idx] - skews[launch_idx]
        violation = diff - limits
        order = np.argsort(-violation)
        changed = False
        for k in order:
            if violation[k] <= 1e-9:
                break
            skews[capture_idx[k]] -= violation[k]
            changed = True
            diff = skews[capture_idx] - skews[launch_idx]
            violation = diff - limits
        if not changed:
            break
    return skews


def apply_skews(
    system: "CompiledConstraintSystem", skew_map: ClockSkewMap
) -> "CompiledConstraintSystem":
    """The system with the skews of ``skew_map``, stored on its design.

    Returns a system with the same topology and stacks and the new skew
    differences ``k_j - k_i``, sets it as the design's compiled system
    (so the next :func:`~repro.core.compiled.ensure_compiled_system`
    returns it) and ``skew_map`` as the design's clock skew map.
    """
    # repro.core sits above repro.timing, so import at call time.
    from repro.core.compiled import CompiledConstraintSystem

    skews = np.array([skew_map.skew(ff) for ff in system.ff_names])
    skewed = CompiledConstraintSystem(
        design=system.design,
        ff_names=system.ff_names,
        edge_launch=system.edge_launch,
        edge_capture=system.edge_capture,
        skew_difference=skews[system.edge_capture] - skews[system.edge_launch],
        setup_forms=system.setup_forms,
        hold_forms=system.hold_forms,
    )
    design = system.design
    design.clock_skew = skew_map
    design.cached_compiled_system = skewed
    return skewed
