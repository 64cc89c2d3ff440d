"""Property-based tests for the per-sample solver.

Random sequential topologies and random per-sample bounds are generated;
whatever the solver returns must be *correct*: returned assignments satisfy
every constraint, claimed-infeasible regions are genuinely hard (the exact
MILP backend cannot do better on small instances), and buffer counts never
undercut the exact optimum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.difference import REFERENCE, DifferenceConstraint
from repro.core.sample_solver import (
    ConstraintTopology,
    PerSampleSolver,
    SampleProblem,
    concentration_lp,
)
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from tests.milp.loop_simplex import assert_matches_loop


@st.composite
def random_problems(draw):
    n_ffs = draw(st.integers(3, 8))
    n_edges = draw(st.integers(2, 12))
    launch = []
    capture = []
    for _ in range(n_edges):
        i = draw(st.integers(0, n_ffs - 1))
        j = draw(st.integers(0, n_ffs - 1))
        if i == j:
            j = (j + 1) % n_ffs
        launch.append(i)
        capture.append(j)
    topology = ConstraintTopology(
        ff_names=[f"ff{i}" for i in range(n_ffs)],
        edge_launch=np.array(launch),
        edge_capture=np.array(capture),
    )
    setup = np.array(draw(st.lists(st.integers(-6, 8), min_size=n_edges, max_size=n_edges)), dtype=float)
    hold = np.array(draw(st.lists(st.integers(-2, 10), min_size=n_edges, max_size=n_edges)), dtype=float)
    bound = draw(st.integers(4, 20))
    problem = SampleProblem(
        setup_bound=setup,
        hold_bound=hold,
        lower=np.full(n_ffs, -float(bound)),
        upper=np.full(n_ffs, float(bound)),
    )
    return topology, problem


@st.composite
def concentration_cases(draw):
    """A support with scope constraints and targets, shaped like the
    flow's concentration LPs: ±1 rows around an integer point, with
    integer windows and weights (slack 0 makes many degenerate ties),
    zero or fractional targets, and ``REFERENCE`` on either side of a
    constraint plus a ``u == v`` self-edge.  One case in four has a
    constraint past the point, which can make the LP infeasible."""
    n_ffs = draw(st.integers(2, 7))
    ffs = sorted(draw(st.sets(st.integers(0, n_ffs - 1), min_size=2)))
    lower = np.array(draw(st.lists(st.integers(-6, 0), min_size=n_ffs, max_size=n_ffs)), float)
    upper = np.array(draw(st.lists(st.integers(0, 6), min_size=n_ffs, max_size=n_ffs)), float)
    targets = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(-4, 4)), min_size=n_ffs, max_size=n_ffs))
    )
    point = {ff: draw(st.integers(int(lower[ff]), int(upper[ff]))) for ff in ffs}
    point[REFERENCE] = 0
    ends = [
        (draw(st.sampled_from(ffs)), draw(st.sampled_from(ffs + [REFERENCE])))
        for _ in range(draw(st.integers(0, 14)))
    ]
    ends = [pair if draw(st.booleans()) else pair[::-1] for pair in ends]
    self_edge = draw(st.sampled_from(ffs))
    ends += [(self_edge, self_edge), (ffs[0], REFERENCE), (REFERENCE, ffs[-1])]
    slack = draw(st.lists(st.integers(0, 3), min_size=len(ends), max_size=len(ends)))
    if draw(st.integers(0, 3)) == 0:
        slack[0] = -1
    constraints = [
        DifferenceConstraint(u, v, float(point[u] - point[v] + extra))
        for (u, v), extra in zip(draw(st.permutations(ends)), slack, strict=True)
    ]
    problem = SampleProblem(np.zeros(0), np.zeros(0), lower, upper)
    return problem, ffs, constraints, targets


def model_concentration_arrays(problem, ffs, constraints, targets):
    """The concentration LP as the modelling layer builds it."""
    model = Model("concentrate")
    x_vars = {}
    objective_terms = []
    for ff in ffs:
        x = model.add_var(f"x_{ff}", lb=float(problem.lower[ff]), ub=float(problem.upper[ff]))
        span = float(problem.upper[ff] - problem.lower[ff]) + abs(float(targets[ff])) + 1.0
        t = model.add_var(f"t_{ff}", lb=0.0, ub=span)
        x_vars[ff] = x
        target = float(targets[ff])
        model.add_constr(t >= x - target)
        model.add_constr(t >= target - x)
        objective_terms.append(t)
    for constraint in constraints:
        if constraint.u == REFERENCE:
            model.add_constr(-1.0 * x_vars[constraint.v] <= constraint.weight)
        elif constraint.v == REFERENCE:
            model.add_constr(1.0 * x_vars[constraint.u] <= constraint.weight)
        else:
            model.add_constr(x_vars[constraint.u] - x_vars[constraint.v] <= constraint.weight)
    model.set_objective(LinExpr.sum_of(objective_terms))
    return model.to_arrays()


def _assignment_is_valid(topology, problem, solution):
    x = np.zeros(topology.n_ffs)
    for ff, value in solution.tunings.items():
        if not (problem.lower[ff] - 1e-6 <= value <= problem.upper[ff] + 1e-6):
            return False
        x[ff] = value
    for k in range(topology.n_edges):
        i, j = int(topology.edge_launch[k]), int(topology.edge_capture[k])
        if x[i] - x[j] > problem.setup_bound[k] + 1e-6:
            return False
        if x[j] - x[i] > problem.hold_bound[k] + 1e-6:
            return False
    return True


class TestSolverProperties:
    @given(random_problems())
    @settings(max_examples=40)
    def test_feasible_solutions_satisfy_all_constraints(self, case):
        topology, problem = case
        solution = PerSampleSolver(topology).solve(problem)
        if solution.feasible:
            assert _assignment_is_valid(topology, problem, solution)

    @given(random_problems())
    @settings(max_examples=40)
    def test_no_violation_means_no_buffers(self, case):
        topology, problem = case
        solution = PerSampleSolver(topology).solve(problem)
        if problem.violated_edges().size == 0:
            assert solution.n_adjusted == 0 and solution.feasible

    @given(random_problems())
    @settings(max_examples=40)
    def test_values_are_integral_in_discrete_mode(self, case):
        topology, problem = case
        solution = PerSampleSolver(topology, integral=True).solve(problem)
        for value in solution.tunings.values():
            assert value == int(value)

    @given(random_problems())
    @settings(max_examples=20)
    def test_graph_never_beats_exact_milp_and_agrees_on_feasibility(self, case):
        topology, problem = case
        solver = PerSampleSolver(topology)
        graph_solution = solver.solve(problem)
        milp_solution = solver.solve_with_milp(problem)
        assert graph_solution.feasible == milp_solution.feasible
        if graph_solution.feasible:
            assert milp_solution.n_adjusted <= graph_solution.n_adjusted
            assert _assignment_is_valid(topology, problem, milp_solution)


class TestConcentrationLp:
    @given(concentration_cases())
    @settings(max_examples=60)
    def test_arrays_match_the_modelling_layer(self, case):
        names = ("c", "a_ub", "b_ub", "lower", "upper")
        built = dict(zip(names, concentration_lp(*case), strict=True))
        reference = model_concentration_arrays(*case)
        for name, array in built.items():
            assert np.array_equal(array, reference[name]), name
        assert reference["a_eq"] is None and reference["integer_indices"] == []

    @given(concentration_cases())
    @settings(max_examples=60)
    def test_simplex_matches_loop_oracle(self, case):
        assert_matches_loop(*concentration_lp(*case))
