"""Property-based tests for the LP/MILP substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp.backends import HAVE_SCIPY, solve_lp
from repro.milp.status import SolveStatus
from tests.milp.loop_simplex import assert_matches_loop


@st.composite
def bounded_lps(draw):
    """Random LPs that contain the origin, hence are feasible."""
    n_vars = draw(st.integers(2, 5))
    n_rows = draw(st.integers(1, 6))
    c = np.array(draw(st.lists(st.floats(-2, 2), min_size=n_vars, max_size=n_vars)))
    a = np.array(
        draw(
            st.lists(
                st.lists(st.floats(-1, 1), min_size=n_vars, max_size=n_vars),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    )
    b = np.array(draw(st.lists(st.floats(0.1, 3), min_size=n_rows, max_size=n_rows)))
    lower = np.array(draw(st.lists(st.floats(-4, -0.5), min_size=n_vars, max_size=n_vars)))
    upper = np.array(draw(st.lists(st.floats(0.5, 4), min_size=n_vars, max_size=n_vars)))
    return c, a, b, lower, upper


class TestLpProperties:
    @given(bounded_lps())
    def test_simplex_returns_feasible_optimum(self, lp):
        c, a, b, lower, upper = lp
        result = solve_lp(c, a, b, None, None, lower, upper, backend="simplex")
        assert result.status is SolveStatus.OPTIMAL
        x = result.x
        assert np.all(x >= lower - 1e-6) and np.all(x <= upper + 1e-6)
        assert np.all(a @ x <= b + 1e-6)
        # The origin is feasible, so the optimum can be no worse than 0.
        assert result.objective <= 1e-7

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    @given(bounded_lps())
    @settings(max_examples=15)
    def test_simplex_matches_scipy_objective(self, lp):
        c, a, b, lower, upper = lp
        own = solve_lp(c, a, b, None, None, lower, upper, backend="simplex")
        ref = solve_lp(c, a, b, None, None, lower, upper, backend="scipy")
        assert own.status is SolveStatus.OPTIMAL and ref.status is SolveStatus.OPTIMAL
        assert own.objective == pytest.approx(ref.objective, abs=1e-5)

    @given(bounded_lps())
    def test_simplex_matches_loop_oracle(self, lp):
        c, a, b, lower, upper = lp
        assert_matches_loop(c, a, b, lower, upper)
