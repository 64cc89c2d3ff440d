"""Dense two-phase primal simplex.

Solves the linear program::

    minimise    c' x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lower <= x <= upper

All bounds must be finite (the callers in this package always have finite
tuning ranges / big-M bounds); the solver shifts each variable by its lower
bound, adds upper-bound rows and slack/artificial variables, and runs a
standard two-phase tableau simplex with Bland's anti-cycling rule.

Its caller is branch & bound (:mod:`repro.milp.branch_bound`), whose
relaxations of the per-sample ``solver="milp"`` models are a few dozen
rows and columns, so per-call overhead rather than arithmetic sets the
cost.  The tableau is therefore assembled by array indexing, and
pricing, the ratio test and each Gauss–Jordan pivot are whole-array numpy
operations.  Each tableau entry still receives the same multiply and
subtract a row-by-row pivot would apply, so vertices and iteration counts
are those of the scalar formulation (the test suite keeps a loop version
as the oracle).  The scipy backend (:mod:`repro.milp.backends`) serves
larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.milp.status import SolveStatus

_TOL = 1e-9


@dataclass
class LpResult:
    """Raw result of an LP solve on arrays (not yet mapped back to Vars)."""

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0


def solve_lp_arrays(
    c: np.ndarray,
    a_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    a_eq: Optional[np.ndarray],
    b_eq: Optional[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    max_iterations: int = 20000,
) -> LpResult:
    """Solve a bounded LP given as dense arrays.  See module docstring."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(~np.isfinite(lower)) or np.any(~np.isfinite(upper)):
        raise ValueError("simplex backend requires finite variable bounds")
    if np.any(upper < lower - _TOL):
        return LpResult(SolveStatus.INFEASIBLE)

    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()

    # Shift variables so that y = x - lower >= 0.
    span = upper - lower
    b_ub_shift = b_ub - a_ub @ lower if a_ub.size else b_ub
    b_eq_shift = b_eq - a_eq @ lower if a_eq.size else b_eq
    objective_shift = float(c @ lower)

    # Upper bounds become explicit <= rows (a span that overflows gets none).
    bounded = np.flatnonzero(np.isfinite(span))
    span_rows = np.zeros((bounded.size, n))
    span_rows[np.arange(bounded.size), bounded] = 1.0
    a_ub_full = np.vstack([a_ub, span_rows])
    b_ub_full = np.concatenate([b_ub_shift, span[bounded]])

    result = _two_phase_simplex(c, a_ub_full, b_ub_full, a_eq, b_eq_shift, max_iterations)
    if result.status.has_solution and result.x is not None:
        x = result.x[:n] + lower
        objective = float(c @ result.x[:n]) + objective_shift
        return LpResult(result.status, x=x, objective=objective, iterations=result.iterations)
    return result


def _two_phase_simplex(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iterations: int,
) -> LpResult:
    """Two-phase simplex for ``min c'y, A_ub y <= b_ub, A_eq y = b_eq, y >= 0``."""
    n = c.shape[0]
    m_ub = a_ub.shape[0]
    m = m_ub + a_eq.shape[0]
    if m == 0:
        # Only bounds: minimise by setting y to 0 for non-negative costs.
        if np.any(c < -_TOL):  # pragma: no cover - callers always bound variables
            return LpResult(SolveStatus.UNBOUNDED)
        return LpResult(SolveStatus.OPTIMAL, x=np.zeros(n), objective=0.0, iterations=0)

    # Tableau rows [A | slack | artificial | b] with b >= 0.  A row with a
    # negative rhs is negated, so a <= row becomes a >= row whose slack
    # column is a surplus (-1).  Row i < m_ub owns slack column n + i.
    # Equality rows and flipped rows start on an artificial variable (a
    # surplus column cannot serve as an initial basis), the others on
    # their slack.
    b = np.concatenate([b_ub, b_eq])
    sign = np.where(b < 0, -1.0, 1.0)
    needs_artificial = sign < 0
    needs_artificial[m_ub:] = True
    art_rows = np.flatnonzero(needs_artificial)
    n_slack, n_art = m_ub, art_rows.size
    slack_rows = np.arange(m_ub)
    art_cols = n + n_slack + np.arange(n_art)

    tableau = np.zeros((m, n + n_slack + n_art + 1))
    tableau[:, :n] = np.vstack([a_ub, a_eq]) * sign[:, None]
    tableau[slack_rows, n + slack_rows] = sign[:m_ub]
    tableau[art_rows, art_cols] = 1.0
    tableau[:, -1] = b * sign
    basis = n + np.arange(m)
    basis[art_rows] = art_cols
    iterations = 0

    # ------------------------------------------------------------------
    # Phase 1: minimise the sum of artificial variables.
    # ------------------------------------------------------------------
    if n_art:
        phase1_cost = np.zeros(tableau.shape[1] - 1)
        phase1_cost[n + n_slack:] = 1.0
        status, iterations = _run_simplex(tableau, basis, phase1_cost, max_iterations)
        if status is not SolveStatus.OPTIMAL:
            return LpResult(status, iterations=iterations)
        if _objective_value(tableau, basis, phase1_cost) > 1e-7:
            return LpResult(SolveStatus.INFEASIBLE, iterations=iterations)
        tableau, basis = _drive_out_artificials(tableau, basis, n + n_slack)

    # ------------------------------------------------------------------
    # Phase 2: minimise the real objective.
    # ------------------------------------------------------------------
    total_cols = tableau.shape[1] - 1
    cost = np.zeros(total_cols)
    cost[:n] = c
    status, iters2 = _run_simplex(tableau, basis, cost, max_iterations)
    iterations += iters2
    if status is not SolveStatus.OPTIMAL:
        return LpResult(status, iterations=iterations)

    y = np.zeros(total_cols)
    y[basis] = tableau[:, -1]
    objective = float(cost @ y)
    return LpResult(SolveStatus.OPTIMAL, x=y[:n], objective=objective, iterations=iterations)


def _objective_value(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> float:
    # Summed in row order, as the scalar formulation does.
    return sum((cost[basis] * tableau[:, -1]).tolist())


def _drive_out_artificials(
    tableau: np.ndarray, basis: np.ndarray, n_real: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pivot artificial variables out of the basis, then drop the
    artificial columns.

    An artificial that stays basic marks a redundant equality row: the
    row has no real column to pivot on (every real entry is zero) and
    its artificial sits at zero, so the row is dropped as well.
    """
    for i in np.flatnonzero(basis >= n_real):
        nonzero = np.flatnonzero(np.abs(tableau[i, :n_real]) > 1e-9)
        if nonzero.size:
            _pivot(tableau, i, nonzero[0])
            basis[i] = nonzero[0]
    keep = basis < n_real
    return np.hstack([tableau[keep, :n_real], tableau[keep, -1:]]), basis[keep]


def _run_simplex(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iterations: int
) -> Tuple[SolveStatus, int]:
    """Run primal simplex pivots in place until optimality."""
    n_total = tableau.shape[1] - 1
    body, rhs = tableau[:, :n_total], tableau[:, -1]
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        # Reduced costs: r_j = c_j - c_B' B^-1 A_j  (computed from the tableau).
        reduced = cost[:n_total] - cost[basis] @ body
        # Bland's rule: smallest index with negative reduced cost.
        improving = reduced < -_TOL
        entering = improving.argmax()
        if not improving[entering]:
            return SolveStatus.OPTIMAL, iterations

        column = body[:, entering]
        ratios = np.full(rhs.shape[0], np.inf)
        positive = column > _TOL
        ratios[positive] = rhs[positive] / column[positive]
        if not np.isfinite(ratios).any():
            return SolveStatus.UNBOUNDED, iterations
        # Bland's rule on the leaving variable: among the minimum ratios pick
        # the row whose basic variable has the smallest index.
        ties = (ratios <= ratios.min() + _TOL).nonzero()[0]
        leaving = ties[np.argmin(basis[ties])]
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    return SolveStatus.ITERATION_LIMIT, iterations


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col), all other rows in one update."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    update = (np.abs(factors) > _TOL).nonzero()[0]
    tableau[update] -= factors[update, None] * tableau[row]
