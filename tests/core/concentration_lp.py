"""The concentration problem as an LP: the HiGHS oracle's formulation.

The solver concentrates without an LP (closed form, then a min-cost
flow); the tests compare its objective in continuous mode with scipy
HiGHS on :func:`concentration_lp`, and use the same arrays to exercise
the built-in simplex.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.difference import DifferenceRows
from repro.core.sample_solver import SampleProblem


def concentration_lp(
    problem: SampleProblem,
    ffs: Sequence[int],
    rows: DifferenceRows,
    targets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The concentration LP of a support as ``(c, a_ub, b_ub, lower, upper)``.

    With one ``t_i >= |x_i - target_i|`` per flip-flop ``i`` of ``ffs``
    (ascending), the LP is::

        minimise  sum_i t_i
        s.t.      x_i - t_i <= target_i,   -x_i - t_i <= -target_i
                  x_u - x_v <= w           (every scope row, in order)
                  lower_i <= x_i <= upper_i,   0 <= t_i <= span_i

    with ``span_i = upper_i - lower_i + |target_i| + 1``, which bounds
    ``|x_i - target_i|`` because the windows hold 0.  Columns are
    ``x_i, t_i`` per flip-flop; the scope ``rows`` index ``ffs`` by
    position, and an end at position ``len(ffs)`` (the pinned reference)
    contributes no coefficient.
    """
    n_ffs = len(ffs)
    n_vars = 2 * n_ffs
    target = targets[ffs]
    c = np.zeros(n_vars)
    c[1::2] = 1.0
    lower = np.zeros(n_vars)
    lower[0::2] = problem.lower[ffs]
    upper = np.empty(n_vars)
    upper[0::2] = problem.upper[ffs]
    upper[1::2] = (problem.upper[ffs] - problem.lower[ffs]) + np.abs(target) + 1.0

    # Rows 2k and 2k + 1 bound x_k - t_k and -x_k - t_k, so the first
    # n_vars rows share their indices with the columns.
    u, v, w = rows
    a_ub = np.zeros((n_vars + w.shape[0], n_vars))
    b_ub = np.empty(a_ub.shape[0])
    x_cols = np.arange(0, n_vars, 2)
    a_ub[x_cols, x_cols] = 1.0
    a_ub[x_cols, x_cols + 1] = -1.0
    a_ub[x_cols + 1, x_cols] = -1.0
    a_ub[x_cols + 1, x_cols + 1] = -1.0
    b_ub[0:n_vars:2] = target
    b_ub[1:n_vars:2] = -target
    scope_rows = np.arange(n_vars, a_ub.shape[0])
    free = u < n_ffs
    a_ub[scope_rows[free], 2 * u[free]] += 1.0
    free = v < n_ffs
    a_ub[scope_rows[free], 2 * v[free]] -= 1.0
    b_ub[n_vars:] = w
    return c, a_ub, b_ub, lower, upper


def highs_objective(
    problem: SampleProblem,
    ffs: Sequence[int],
    rows: DifferenceRows,
    targets: np.ndarray,
) -> float:
    """The least ``sum |x_i - target_i|`` of a support, by scipy HiGHS."""
    from repro.milp.backends import solve_lp

    c, a_ub, b_ub, lower, upper = concentration_lp(problem, ffs, rows, targets)
    result = solve_lp(c, a_ub, b_ub, None, None, lower, upper, backend="scipy")
    assert result.status.has_solution
    return result.objective
