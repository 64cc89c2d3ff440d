"""Property-based tests for the difference-constraint engine."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.difference import (
    check_assignment,
    solve_difference_system,
)


def _rows(triples):
    u, v, w = zip(*triples, strict=True)
    return np.array(u, dtype=np.intp), np.array(v, dtype=np.intp), np.array(w, dtype=float)


@st.composite
def feasible_systems(draw):
    """Generate systems that are feasible by construction.

    A hidden assignment is drawn first; constraint weights are then chosen
    at or above the hidden assignment's differences, so the hidden point is
    feasible and the solver must find *some* feasible point.
    """
    n = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n)]
    hidden = [draw(st.integers(-10, 10)) for _ in names]
    n_constraints = draw(st.integers(1, 12))
    triples = []
    for _ in range(n_constraints):
        u = draw(st.integers(0, n - 1))
        v = draw(st.sampled_from([x for x in range(n) if x != u]))
        slack = draw(st.integers(0, 5))
        triples.append((u, v, hidden[u] - hidden[v] + slack))
    margin = draw(st.integers(0, 3))
    lower = np.array([h - margin - draw(st.integers(0, 5)) for h in hidden], dtype=float)
    upper = np.array([h + margin + draw(st.integers(0, 5)) for h in hidden], dtype=float)
    return names, triples, lower, upper


class TestDifferenceProperties:
    @given(feasible_systems())
    def test_feasible_systems_are_solved(self, system):
        names, triples, lower, upper = system
        rows = _rows(triples)
        solution = solve_difference_system(names, rows, lower, upper)
        assert solution is not None
        assert check_assignment(list(solution.values()), rows, lower, upper, tolerance=1e-6)

    @given(feasible_systems())
    def test_integer_inputs_give_integer_solutions(self, system):
        names, triples, lower, upper = system
        solution = solve_difference_system(names, _rows(triples), lower, upper)
        assert solution is not None
        for value in solution.values():
            assert value == int(value)

    @given(feasible_systems(), st.integers(0, 100))
    def test_tightening_a_constraint_below_range_makes_it_infeasible(self, system, seed):
        """Forcing x_u - x_v <= -(span_u + span_v + 1) can never be satisfied
        inside the boxes, so the solver must report infeasibility."""
        names, triples, lower, upper = system
        rng = np.random.default_rng(seed)
        u, v = (int(p) for p in rng.choice(len(names), size=2, replace=False))
        impossible = (lower[u] - upper[v]) - 1
        rows = _rows(triples + [(u, v, impossible)])
        assert solve_difference_system(names, rows, lower, upper) is None
