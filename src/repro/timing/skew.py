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
``n_sigma`` standard deviations.  The projection is an iterative
Gauss-Seidel repair with a global shrink fallback, which always terminates
because the all-zero skew assignment is feasible whenever the un-skewed
design meets hold.
"""

from __future__ import annotations


import numpy as np

from repro.circuit.clockskew import ClockSkewMap
from repro.timing.constraints import SequentialConstraintGraph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative


def hold_aware_random_skews(
    constraint_graph: SequentialConstraintGraph,
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
    constraint_graph:
        Sequential constraint graph of the design (skews stored in it are
        ignored; only the statistical hold quantities are used).
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

    ff_names = constraint_graph.ff_names
    n_ffs = len(ff_names)
    skews = generator.uniform(-magnitude, magnitude, size=n_ffs)
    if magnitude == 0.0 or constraint_graph.n_edges == 0:
        return ClockSkewMap({ff: float(s) for ff, s in zip(ff_names, skews, strict=True)})

    launch_idx = constraint_graph.edge_launch_idx
    capture_idx = constraint_graph.edge_capture_idx
    holds = [edge.hold_quantity for edge in constraint_graph.edges]
    limits = np.array([hold.mean - n_sigma * hold.std - extra_margin for hold in holds])
    # Edges that violate hold even with zero skew cannot be repaired by skew
    # assignment; they keep a zero allowance so the repair does not chase them.
    limits = np.maximum(limits, 0.0)

    skews = _project_onto_constraints(
        skews, launch_idx, capture_idx, limits, max_iterations, shrink_factor
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
    constraint_graph: SequentialConstraintGraph, skew_map: ClockSkewMap
) -> None:
    """Update the skew fields of every edge of ``constraint_graph`` in place.

    Also sets the design's clock skew map and clears its compiled
    constraint system, so the next
    :func:`~repro.core.compiled.ensure_compiled_system` compiles the new
    skews instead of returning a system built from the old ones.
    """
    for edge in constraint_graph.edges:
        edge.skew_launch = skew_map.skew(edge.launch)
        edge.skew_capture = skew_map.skew(edge.capture)
    design = constraint_graph.design
    design.clock_skew = skew_map
    design.cached_compiled_system = None
