"""Tests for the difference-constraint engine."""

import numpy as np
import pytest

from repro.core.difference import (
    check_assignment,
    solve_difference_system,
    tighten_to_integers,
    tightest_rows,
)


def rows(*triples):
    """Constraint rows ``(u, v, w)`` from ``x_u - x_v <= w`` triples."""
    u = np.array([t[0] for t in triples], dtype=np.intp)
    v = np.array([t[1] for t in triples], dtype=np.intp)
    w = np.array([t[2] for t in triples], dtype=float)
    return u, v, w


class TestSolveDifferenceSystem:
    def test_simple_feasible_chain(self):
        constraints = rows(
            (0, 1, -2.0),  # a - b <= -2  => b >= a + 2
            (1, 2, 1.0),
        )
        solution = solve_difference_system(["a", "b", "c"], constraints)
        assert solution is not None
        assert solution["a"] - solution["b"] <= -2.0 + 1e-9
        assert solution["b"] - solution["c"] <= 1.0 + 1e-9

    def test_reference_bounds(self):
        constraints = rows((0, 1, 5.0))  # a <= 5 (position 1 is the reference)
        solution = solve_difference_system(["a"], constraints, lower=[2.0], upper=[4.0])
        assert solution is not None
        assert 2.0 - 1e-9 <= solution["a"] <= 4.0 + 1e-9

    def test_infeasible_cycle(self):
        constraints = rows(
            (0, 1, -1.0),
            (1, 0, -1.0),  # a < b and b < a
        )
        assert solve_difference_system(["a", "b"], constraints) is None

    def test_infeasible_bounds(self):
        constraints = rows((0, 1, -10.0))
        solution = solve_difference_system(
            ["a", "b"], constraints, lower=[-1, -1], upper=[1, 1]
        )
        assert solution is None

    def test_feasible_with_negative_values(self):
        # a must be at least 3 below zero-reference: a <= -3.
        constraints = rows((0, 1, -3.0))
        solution = solve_difference_system(["a"], constraints, lower=[-5.0], upper=[5.0])
        assert solution is not None
        assert solution["a"] <= -3.0 + 1e-9
        assert solution["a"] >= -5.0 - 1e-9

    def test_empty_system(self):
        assert solve_difference_system([], rows()) == {}

    def test_integer_weights_give_integer_solution(self):
        constraints = rows(
            (0, 1, -2),
            (1, 2, 4),  # b <= 4
            (2, 0, 3),  # -a <= 3
        )
        solution = solve_difference_system(
            ["a", "b"], constraints, lower=[-10, -10], upper=[10, 10]
        )
        assert solution is not None
        for value in solution.values():
            assert value == int(value)

    def test_reference_cannot_be_variable(self):
        # Position n is the pinned reference, never a returned variable, and
        # no row may name a position past it (or a negative one).
        solution = solve_difference_system(["a"], rows((1, 0, -2.0)))  # a >= 2
        assert list(solution) == ["a"] and solution["a"] >= 2.0 - 1e-9
        with pytest.raises(ValueError):
            solve_difference_system(["a"], rows((0, 2, 1.0)))
        with pytest.raises(ValueError):
            solve_difference_system(["a"], rows((-1, 0, 1.0)))

    def test_solution_verifies(self):
        constraints = rows(
            (0, 1, -1.0),
            (1, 2, -1.0),
            (2, 3, 5.0),  # c <= 5
        )
        lower = np.array([-10, -10, -10])
        upper = np.array([10, 10, 10])
        solution = solve_difference_system(["a", "b", "c"], constraints, lower, upper)
        assert solution is not None
        assert check_assignment(list(solution.values()), constraints, lower, upper)


class TestCheckAssignment:
    def test_detects_violation(self):
        constraints = rows((0, 1, 1.0))
        assert not check_assignment([3.0, 1.0], constraints)
        assert check_assignment([2.0, 1.0], constraints)

    def test_bound_violations(self):
        assert not check_assignment([2.0], rows(), upper=np.array([1.0]))
        assert not check_assignment([0.0], rows(), lower=np.array([1.0]))

    def test_nan_fails(self):
        assert not check_assignment([np.nan, 1.0], rows((0, 1, 1.0)))
        assert not check_assignment([np.nan], rows(), lower=np.array([-1.0]))


class TestTightestRows:
    def test_keeps_the_least_weight_per_pair_in_pair_order(self):
        reduced = tightest_rows(
            rows((1, 0, 4.0), (0, 2, 3.0), (1, 0, 2.0), (2, 1, 0.0), (0, 2, 5.0), (1, 0, 2.0)),
            2,
        )
        assert [a.tolist() for a in reduced] == [[0, 1, 2], [2, 0, 1], [3.0, 2.0, 0.0]]

    def test_same_feasible_points(self):
        full = rows((0, 1, 1.0), (0, 1, -1.0), (1, 2, 2.0), (1, 2, 0.5))
        reduced = tightest_rows(full, 2)
        for point in ([0.0, 1.0], [0.0, 0.5], [0.0, 0.6], [1.0, 1.0]):
            assert check_assignment(point, reduced) == check_assignment(point, full)

    def test_no_rows(self):
        assert all(a.size == 0 for a in tightest_rows(rows(), 3))


class TestTighten:
    def test_weights_floored(self):
        tightened = tighten_to_integers(np.array([2.7]))
        assert tightened[0] == 2

    def test_negative_weights_floored_away_from_zero(self):
        tightened = tighten_to_integers(np.array([-1.2]))
        assert tightened[0] == -2
