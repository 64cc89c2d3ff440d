"""Difference-constraint feasibility engine.

Once a Monte-Carlo sample fixes all delays, the paper's constraints (1)–(3)
become a *system of difference constraints* over the tuning values::

    x_u - x_v <= w          (setup / hold constraints between two buffers)
    lo_u <= x_u <= hi_u     (range windows)

with most variables additionally pinned to zero (flip-flops without a
buffer).  Feasibility of such a system — and a witness assignment — is a
textbook shortest-path problem: build the constraint graph, add a reference
node for the pinned value 0, and run Bellman–Ford; a negative cycle means
infeasible.

A system over ``n`` free variables is given as index arrays ``(u, v, w)``
with one row ``x_u - x_v <= w`` per constraint.  ``u`` and ``v`` are
variable positions ``0 .. n - 1``; position ``n`` is the reference (the
pinned value 0), so the row ``(i, n, w)`` reads ``x_i <= w`` and
``(n, i, w)`` reads ``-x_i <= w``.  :func:`edge_rows` builds the rows of
sequential edges, :func:`tightest_rows` keeps the one row per ordered
pair that can bind, and :func:`solve_difference_system` is the one
Bellman–Ford loop.

This module is the shared substrate of the per-sample solver
(:mod:`repro.core.sample_solver`) and the post-silicon configurator
(:mod:`repro.tuning`), which both build their rows with :func:`edge_rows`.
When all weights are integers (the discrete-step mode), the returned
assignment is integral as well, which is how discrete tuning steps are
handled exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

#: Constraint rows ``(u, v, w)``: one ``x_u - x_v <= w`` per row, with
#: position ``n`` (the number of variables) as the pinned reference.
DifferenceRows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def edge_rows(
    launch: np.ndarray,
    capture: np.ndarray,
    setup: np.ndarray,
    hold: np.ndarray,
) -> DifferenceRows:
    """Rows of sequential edges ``launch[m] -> capture[m]``.

    Each edge gives two consecutive rows: its setup row
    ``x_launch - x_capture <= setup[m]``, then its hold row
    ``x_capture - x_launch <= hold[m]``.  ``launch`` and ``capture`` hold
    variable positions, with ``n`` standing for a pinned end.
    """
    u = np.empty(2 * len(launch), dtype=np.intp)
    v = np.empty_like(u)
    w = np.empty(u.shape[0])
    u[0::2] = launch
    u[1::2] = capture
    v[0::2] = capture
    v[1::2] = launch
    w[0::2] = setup
    w[1::2] = hold
    return u, v, w


def tightest_rows(rows: DifferenceRows, n: int) -> DifferenceRows:
    """The tightest row of every ordered pair, in ascending ``(u, v)`` order.

    Of all rows ``x_u - x_v <= w`` with the same ``(u, v)`` only the one
    with the smallest ``w`` can bind, so the reduced system has the same
    feasible set.  ``n`` is the reference position.  The result depends
    only on the set of rows, never on their order.
    """
    u, v, w = rows
    pair = u * (n + 1) + v
    order = np.lexsort((w, pair))
    pair = pair[order]
    first = np.empty(pair.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    keep = order[first]
    return u[keep], v[keep], w[keep]


def solve_difference_system(
    variables: Sequence[Hashable],
    rows: DifferenceRows,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
) -> Optional[Dict[Hashable, float]]:
    """Find a feasible assignment of a difference-constraint system.

    Parameters
    ----------
    variables:
        The free variables; the ``i``-th is position ``i`` of the rows.
    rows:
        Constraint rows ``(u, v, w)`` over positions ``0 .. n``, where
        ``n = len(variables)`` is the reference.  A position outside that
        range raises ``ValueError``.
    lower / upper:
        Optional box bounds, one per variable (converted to reference
        edges).

    Returns
    -------
    dict or None
        A feasible assignment keyed by variable, in the order given (the
        reference pinned to 0), or ``None`` when the system is infeasible.

    Bellman–Ford relaxes the constraint rows in order, then the upper
    bounds, then the lower bounds.
    """
    n = len(variables)
    heads = np.asarray(rows[0]).tolist()
    tails = np.asarray(rows[1]).tolist()
    weights = np.asarray(rows[2], dtype=float).tolist()
    if heads and (min(heads) < 0 or min(tails) < 0 or max(heads) > n or max(tails) > n):
        raise ValueError(f"row positions must lie in 0..{n} (the reference is {n})")

    # Edge list: constraint x_u - x_v <= w  ->  edge v -> u with weight w;
    # an upper bound is an edge from the reference, a lower bound one to it.
    edges = list(zip(tails, heads, weights, strict=True))
    if upper is not None:
        edges += zip([n] * n, range(n), np.asarray(upper, dtype=float).tolist(), strict=True)
    if lower is not None:
        edges += zip(range(n), [n] * n, (-np.asarray(lower, dtype=float)).tolist(), strict=True)

    # Bellman-Ford from an implicit super-source (all distances start at 0).
    dist = [0.0] * (n + 1)
    for _iteration in range(n + 1):
        changed = False
        for v, u, w in edges:
            candidate = dist[v] + w
            if candidate < dist[u] - 1e-12:
                dist[u] = candidate
                changed = True
        if not changed:
            break
    else:
        # Still relaxing after n + 1 iterations: negative cycle -> infeasible.
        return None

    offset = dist[n]
    return {var: dist[i] - offset for i, var in enumerate(variables)}


def check_assignment(
    values: Sequence[float],
    rows: DifferenceRows,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    tolerance: float = 1e-9,
) -> bool:
    """Verify values (one per position) against rows and bounds (reference = 0).

    Like :func:`solve_difference_system` it loops over Python lists: the
    per-sample systems are a few dozen rows, where numpy's per-call
    overhead would dominate.  A NaN value fails the check.
    """
    x = np.asarray(values, dtype=float).tolist()
    if lower is not None and not all(
        bound - tolerance <= value
        for value, bound in zip(x, np.asarray(lower, dtype=float).tolist(), strict=True)
    ):
        return False
    if upper is not None and not all(
        value <= bound + tolerance
        for value, bound in zip(x, np.asarray(upper, dtype=float).tolist(), strict=True)
    ):
        return False
    x.append(0.0)
    heads, tails, weights = (np.asarray(array).tolist() for array in rows)
    return all(
        x[u] - x[v] <= w + tolerance for u, v, w in zip(heads, tails, weights, strict=True)
    )


def tighten_to_integers(weights: np.ndarray) -> np.ndarray:
    """Round constraint weights down to integers (conservative tightening).

    Working on the integer grid makes every Bellman–Ford witness integral,
    which is how discrete tuning steps are supported without an explicit
    integer program.
    """
    return np.floor(np.asarray(weights, dtype=float) + 1e-9)
