"""Tests for the built-in two-phase simplex."""

import numpy as np
import pytest

from repro.milp.backends import HAVE_SCIPY, solve_lp
from repro.milp.simplex import solve_lp_arrays
from repro.milp.status import SolveStatus


class TestSimplexBasics:
    def test_simple_maximisation_via_negated_cost(self):
        # max x + y  s.t. x + 2y <= 4, 3x + y <= 6, 0 <= x,y <= 10
        result = solve_lp_arrays(
            c=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
            b_ub=np.array([4.0, 6.0]),
            a_eq=None,
            b_eq=None,
            lower=np.zeros(2),
            upper=np.full(2, 10.0),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-2.8)
        assert result.x[0] == pytest.approx(1.6)
        assert result.x[1] == pytest.approx(1.2)

    def test_negative_lower_bounds(self):
        # min x subject to x >= -3 (bound) and x - y <= -2 with y in [0, 1].
        result = solve_lp_arrays(
            c=np.array([1.0, 0.0]),
            a_ub=np.array([[1.0, -1.0]]),
            b_ub=np.array([-2.0]),
            a_eq=None,
            b_eq=None,
            lower=np.array([-3.0, 0.0]),
            upper=np.array([3.0, 1.0]),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.x[0] == pytest.approx(-3.0)

    def test_equality_constraints(self):
        result = solve_lp_arrays(
            c=np.array([1.0, 2.0]),
            a_ub=None,
            b_ub=None,
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]),
            lower=np.zeros(2),
            upper=np.full(2, 10.0),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(5.0)
        assert result.x[0] == pytest.approx(5.0)

    def test_infeasible_bounds(self):
        result = solve_lp_arrays(
            c=np.array([1.0]),
            a_ub=None,
            b_ub=None,
            a_eq=None,
            b_eq=None,
            lower=np.array([2.0]),
            upper=np.array([1.0]),
        )
        assert result.status is SolveStatus.INFEASIBLE

    def test_infeasible_constraints(self):
        result = solve_lp_arrays(
            c=np.array([0.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -3.0]),  # x <= 1 and x >= 3
            a_eq=None,
            b_eq=None,
            lower=np.array([0.0]),
            upper=np.array([10.0]),
        )
        assert result.status is SolveStatus.INFEASIBLE

    def test_only_bounds_problem(self):
        result = solve_lp_arrays(
            c=np.array([1.0, 1.0]),
            a_ub=None,
            b_ub=None,
            a_eq=None,
            b_eq=None,
            lower=np.array([-1.0, 2.0]),
            upper=np.array([5.0, 4.0]),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.x[0] == pytest.approx(-1.0)
        assert result.x[1] == pytest.approx(2.0)

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            solve_lp_arrays(
                c=np.array([1.0]),
                a_ub=None,
                b_ub=None,
                a_eq=None,
                b_eq=None,
                lower=np.array([-np.inf]),
                upper=np.array([np.inf]),
            )

    def test_degenerate_problem_terminates(self):
        # Highly degenerate constraints (all tight at the optimum).
        result = solve_lp_arrays(
            c=np.array([-1.0, -1.0, -1.0]),
            a_ub=np.vstack([np.eye(3), np.ones((1, 3))]),
            b_ub=np.array([1.0, 1.0, 1.0, 1.0]),
            a_eq=None,
            b_eq=None,
            lower=np.zeros(3),
            upper=np.ones(3),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-1.0)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_redundant_equality_row_matches_scipy(self):
        # The second equality row is twice the first, so its artificial
        # stays basic after phase 1 with no real column to pivot on.
        lp = {
            "c": np.array([1.0, 2.0]),
            "a_ub": None,
            "b_ub": None,
            "a_eq": np.array([[1.0, 1.0], [2.0, 2.0]]),
            "b_eq": np.array([1.0, 2.0]),
            "lower": np.zeros(2),
            "upper": np.full(2, 5.0),
        }
        result = solve_lp_arrays(**lp)
        reference = solve_lp(**lp, backend="scipy")
        assert result.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(result.x, reference.x, atol=1e-9)
        assert result.x == pytest.approx([1.0, 0.0])
        assert result.objective == pytest.approx(reference.objective)
