"""List-based reference of the per-sample solver's support check.

The form that :meth:`PerSampleSolver._feasible_assignment` replaces with
a cover pre-check, index-array scope rows and one array Bellman–Ford
loop, kept unchanged as the oracle: every support check builds the
scope, a list of :class:`DifferenceConstraint` objects keyed by
flip-flop (``None`` when an edge with both ends pinned is violated), and
solves it with the dict-based Bellman–Ford below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

_TOL = 1e-9

#: Reference pseudo-variable representing the pinned value 0.
REFERENCE = "__reference__"


@dataclass(frozen=True)
class DifferenceConstraint:
    """One constraint ``x_u - x_v <= weight``.

    ``u`` or ``v`` may be :data:`REFERENCE` to express absolute bounds
    (``x_u <= w`` and ``-x_v <= w`` respectively).
    """

    u: Hashable
    v: Hashable
    weight: float


def solve_difference_system(
    variables: Sequence[Hashable],
    constraints: Iterable[DifferenceConstraint],
    lower: Optional[Dict[Hashable, float]] = None,
    upper: Optional[Dict[Hashable, float]] = None,
) -> Optional[Dict[Hashable, float]]:
    """Find a feasible assignment of a difference-constraint system.

    Parameters
    ----------
    variables:
        The free variables (anything not listed and not the reference is
        rejected with ``KeyError``).
    constraints:
        Difference constraints among the variables and the reference.
    lower / upper:
        Optional box bounds per variable (converted to reference edges).

    Returns
    -------
    dict or None
        A feasible assignment (reference pinned to 0), or ``None`` when the
        system is infeasible.
    """
    lower = lower or {}
    upper = upper or {}
    index: Dict[Hashable, int] = {var: i for i, var in enumerate(variables)}
    if REFERENCE in index:
        raise ValueError("REFERENCE must not be listed as a variable")
    ref = len(index)
    n = ref + 1

    # Edge list: constraint x_u - x_v <= w  ->  edge v -> u with weight w.
    edges: List[Tuple[int, int, float]] = []
    for constraint in constraints:
        u = ref if constraint.u == REFERENCE else index[constraint.u]
        v = ref if constraint.v == REFERENCE else index[constraint.v]
        edges.append((v, u, float(constraint.weight)))
    for var, bound in upper.items():
        edges.append((ref, index[var], float(bound)))
    for var, bound in lower.items():
        edges.append((index[var], ref, -float(bound)))

    # Bellman-Ford from an implicit super-source (all distances start at 0).
    dist = [0.0] * n
    for _iteration in range(n):
        changed = False
        for v, u, w in edges:
            candidate = dist[v] + w
            if candidate < dist[u] - 1e-12:
                dist[u] = candidate
                changed = True
        if not changed:
            break
    else:
        # Still relaxing after n iterations: negative cycle -> infeasible.
        return None

    offset = dist[ref]
    return {var: dist[i] - offset for var, i in index.items()}


class ListSupportCheck:
    """The solver's support check over a topology, on constraint lists."""

    def __init__(self, topology) -> None:
        self.topology = topology

    def _scope_edges(self, support: Set[int], region_edges: List[int]) -> List[int]:
        """All constraints relevant to a support: edges incident to any
        supported flip-flop plus the region's violated edges."""
        scope: Set[int] = set(region_edges)
        for ff in support:
            scope.update(self.topology.edges_of_ff[ff])
        return sorted(scope)

    def _build_constraints(
        self, problem, support: Set[int], scope: Sequence[int]
    ) -> Optional[List[DifferenceConstraint]]:
        """Difference constraints of a scope with non-support values pinned to 0.

        Returns ``None`` when a scope constraint between two pinned
        flip-flops is violated (the support cannot possibly repair it).
        """
        constraints: List[DifferenceConstraint] = []
        launch = self.topology.edge_launch
        capture = self.topology.edge_capture
        for k in scope:
            i, j = int(launch[k]), int(capture[k])
            bs = float(problem.setup_bound[k])
            bh = float(problem.hold_bound[k])
            i_free, j_free = i in support, j in support
            if i_free and j_free:
                constraints.append(DifferenceConstraint(i, j, bs))
                constraints.append(DifferenceConstraint(j, i, bh))
            elif i_free:
                constraints.append(DifferenceConstraint(i, REFERENCE, bs))
                constraints.append(DifferenceConstraint(REFERENCE, i, bh))
            elif j_free:
                constraints.append(DifferenceConstraint(REFERENCE, j, bs))
                constraints.append(DifferenceConstraint(j, REFERENCE, bh))
            else:
                if bs < -_TOL or bh < -_TOL:
                    return None
        return constraints

    def check(
        self, problem, region_edges: List[int], support: Set[int]
    ) -> Tuple[Optional[List[DifferenceConstraint]], Optional[Dict[int, float]]]:
        """The support's constraints (``None`` when an edge with both ends
        pinned is violated) and its Bellman–Ford witness (``None`` when
        the support cannot repair the region)."""
        scope = self._scope_edges(support, region_edges)
        constraints = self._build_constraints(problem, support, scope)
        if constraints is None:
            return None, None
        lower = {ff: float(problem.lower[ff]) for ff in support}
        upper = {ff: float(problem.upper[ff]) for ff in support}
        assignment = solve_difference_system(sorted(support), constraints, lower, upper)
        if assignment is None:
            return constraints, None
        return constraints, {ff: float(v) for ff, v in assignment.items()}
