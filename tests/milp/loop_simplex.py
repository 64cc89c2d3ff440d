"""Row-by-row reference of the dense two-phase simplex.

The scalar-loop formulation that :mod:`repro.milp.simplex` vectorises,
kept unchanged as the oracle: both must return the same status, the same
vertex bit for bit and the same iteration count.  It predates the fix for
redundant equality rows, so only feed it LPs without equality rows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.milp import simplex
from repro.milp.simplex import LpResult
from repro.milp.status import SolveStatus

_TOL = 1e-9


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

    # Upper bounds become explicit <= rows (skip unbounded spans).
    finite_span_rows = []
    finite_span_rhs = []
    for j in range(n):
        if np.isfinite(span[j]):
            row = np.zeros(n)
            row[j] = 1.0
            finite_span_rows.append(row)
            finite_span_rhs.append(span[j])
    if finite_span_rows:
        a_ub_full = np.vstack([a_ub, np.array(finite_span_rows)]) if a_ub.size else np.array(finite_span_rows)
        b_ub_full = np.concatenate([b_ub_shift, np.array(finite_span_rhs)])
    else:  # pragma: no cover - all spans are finite given the check above
        a_ub_full, b_ub_full = a_ub, b_ub_shift

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
    m_eq = a_eq.shape[0]
    m = m_ub + m_eq

    # Build rows: [A | slack | artificial] y = b with b >= 0.
    a = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq]) if m else np.zeros(0)
    row_is_eq = np.array([False] * m_ub + [True] * m_eq)

    # Flip rows with negative rhs so that b >= 0 (<= rows become >= rows,
    # handled by a surplus column with negative sign plus an artificial).
    slack_cols = []
    sign = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            a[i, :] *= -1.0
            b[i] *= -1.0
            sign[i] = -1.0

    n_slack = 0
    slack_matrix = np.zeros((m, 0))
    for i in range(m):
        if row_is_eq[i]:
            continue
        col = np.zeros((m, 1))
        # Original <= row: slack +1; flipped (<= with negative rhs) becomes
        # >= row: surplus -1.
        col[i, 0] = 1.0 if sign[i] > 0 else -1.0
        slack_matrix = np.hstack([slack_matrix, col])
        slack_cols.append(n + n_slack)
        n_slack += 1

    # Artificial variables: needed for equality rows and for flipped >= rows
    # (their surplus column cannot serve as an initial basis).
    art_matrix = np.zeros((m, 0))
    n_art = 0
    art_rows = []
    basis = [-1] * m
    slack_ptr = 0
    for i in range(m):
        needs_artificial = row_is_eq[i] or sign[i] < 0
        if not row_is_eq[i]:
            if sign[i] > 0:
                basis[i] = n + slack_ptr
            slack_ptr += 1
        if needs_artificial:
            col = np.zeros((m, 1))
            col[i, 0] = 1.0
            art_matrix = np.hstack([art_matrix, col])
            basis[i] = n + n_slack + n_art
            art_rows.append(i)
            n_art += 1

    full = np.hstack([a, slack_matrix, art_matrix]) if m else np.zeros((0, n + n_slack + n_art))
    total_cols = n + n_slack + n_art
    iterations = 0

    if m == 0:
        # Only bounds: minimise by setting y to 0 for non-negative costs.
        y = np.zeros(n)
        negative = c < -_TOL
        if np.any(negative):  # pragma: no cover - callers always bound variables
            return LpResult(SolveStatus.UNBOUNDED)
        return LpResult(SolveStatus.OPTIMAL, x=y, objective=0.0, iterations=0)

    tableau = np.hstack([full, b.reshape(-1, 1)])

    # ------------------------------------------------------------------
    # Phase 1: minimise the sum of artificial variables.
    # ------------------------------------------------------------------
    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[n + n_slack:] = 1.0
        status, iterations = _run_simplex(tableau, basis, phase1_cost, max_iterations)
        if status is not SolveStatus.OPTIMAL:
            return LpResult(status, iterations=iterations)
        phase1_obj = _objective_value(tableau, basis, phase1_cost)
        if phase1_obj > 1e-7:
            return LpResult(SolveStatus.INFEASIBLE, iterations=iterations)
        _drive_out_artificials(tableau, basis, n + n_slack)
        # Drop artificial columns.
        tableau = np.hstack([tableau[:, : n + n_slack], tableau[:, -1:]])
        total_cols = n + n_slack

    # ------------------------------------------------------------------
    # Phase 2: minimise the real objective.
    # ------------------------------------------------------------------
    cost = np.zeros(total_cols)
    cost[:n] = c
    status, iters2 = _run_simplex(tableau, basis, cost, max_iterations)
    iterations += iters2
    if status is not SolveStatus.OPTIMAL:
        return LpResult(status, iterations=iterations)

    y = np.zeros(total_cols)
    for i, var in enumerate(basis):
        if 0 <= var < total_cols:
            y[var] = tableau[i, -1]
    objective = float(cost @ y)
    return LpResult(SolveStatus.OPTIMAL, x=y[:n], objective=objective, iterations=iterations)


def _objective_value(tableau: np.ndarray, basis, cost: np.ndarray) -> float:
    value = 0.0
    for i, var in enumerate(basis):
        if var >= 0:
            value += cost[var] * tableau[i, -1]
    return value


def _drive_out_artificials(tableau: np.ndarray, basis, n_real: int) -> None:
    """Pivot artificial variables out of the basis where possible."""
    m = tableau.shape[0]
    for i in range(m):
        if basis[i] >= n_real:
            # Find a non-artificial column with a non-zero entry in this row.
            for j in range(n_real):
                if abs(tableau[i, j]) > 1e-9:
                    _pivot(tableau, i, j)
                    basis[i] = j
                    break
            # If none exists the row is redundant; the artificial stays basic
            # at value zero, which is harmless.


def _run_simplex(
    tableau: np.ndarray, basis, cost: np.ndarray, max_iterations: int
) -> Tuple[SolveStatus, int]:
    """Run primal simplex pivots in place until optimality."""
    m = tableau.shape[0]
    n_total = tableau.shape[1] - 1
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        # Reduced costs: r_j = c_j - c_B' B^-1 A_j  (computed from the tableau).
        cb = np.array([cost[var] if var >= 0 else 0.0 for var in basis])
        reduced = cost[:n_total] - cb @ tableau[:, :n_total]
        # Bland's rule: smallest index with negative reduced cost.
        entering = -1
        for j in range(n_total):
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return SolveStatus.OPTIMAL, iterations

        column = tableau[:, entering]
        ratios = np.full(m, np.inf)
        positive = column > _TOL
        ratios[positive] = tableau[positive, -1] / column[positive]
        if not np.any(np.isfinite(ratios)):
            return SolveStatus.UNBOUNDED, iterations
        # Bland's rule on the leaving variable: among the minimum ratios pick
        # the row whose basic variable has the smallest index.
        min_ratio = np.min(ratios)
        candidates = [i for i in range(m) if np.isfinite(ratios[i]) and ratios[i] <= min_ratio + _TOL]
        leaving = min(candidates, key=lambda i: basis[i])
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    return SolveStatus.ITERATION_LIMIT, iterations


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col)."""
    tableau[row, :] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > _TOL:
            tableau[i, :] -= tableau[i, col] * tableau[row, :]


def assert_matches_loop(c, a_ub, b_ub, lower, upper) -> None:
    """The shipped simplex solves an inequality LP exactly as the loop does."""
    shipped = simplex.solve_lp_arrays(c, a_ub, b_ub, None, None, lower, upper)
    oracle = solve_lp_arrays(c, a_ub, b_ub, None, None, lower, upper)
    assert shipped.status is oracle.status
    assert shipped.iterations == oracle.iterations
    assert (shipped.x is None) == (oracle.x is None)
    if oracle.x is not None:
        assert np.array_equal(shipped.x, oracle.x)
        assert shipped.objective == oracle.objective
