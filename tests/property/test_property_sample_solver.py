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

from repro.core.difference import check_assignment
from repro.core.sample_solver import ConstraintTopology, PerSampleSolver, SampleProblem
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from tests.core.concentration_lp import concentration_lp
from tests.core.list_support_check import REFERENCE, ListSupportCheck
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
def support_checks(draw):
    """A random problem with a region drawn from its violated edges and a
    support: random (a cover or not), a random cover, or every flip-flop.
    One case in two has fractional bounds and windows (a multiple of 1/7
    added to each)."""
    topology, problem = draw(random_problems())
    if draw(st.booleans()):
        def shift(values):
            sevenths = st.integers(-6, 6)
            drawn = draw(st.lists(sevenths, min_size=values.size, max_size=values.size))
            return values + np.array(drawn) / 7.0

        problem = SampleProblem(
            shift(problem.setup_bound), shift(problem.hold_bound),
            shift(problem.lower), shift(problem.upper),
        )
    violated = problem.violated_edges().tolist()
    if not violated:
        violated = [0]
        problem.setup_bound[0] = -1.0
    region = sorted(draw(st.sets(st.sampled_from(violated), min_size=1)))
    kind = draw(st.sampled_from(["random", "cover", "all"]))
    if kind == "all":
        return topology, problem, region, set(range(topology.n_ffs))
    support = draw(st.sets(st.integers(0, topology.n_ffs - 1)))
    if kind == "cover":
        for k in region:
            ends = (int(topology.edge_launch[k]), int(topology.edge_capture[k]))
            support.add(draw(st.sampled_from(ends)))
    if not support:
        support = {draw(st.integers(0, topology.n_ffs - 1))}
    return topology, problem, region, support


@st.composite
def concentration_cases(draw):
    """A support with scope rows and targets, shaped like the flow's
    concentration problems: ±1 rows around an integer point, with integer
    windows and weights (slack 0 makes many degenerate ties), zero or
    fractional targets, and the reference (position ``len(ffs)``) on
    either side of a row plus a ``u == v`` self-edge.  One case in four
    has a row past the point, which can make the LP infeasible."""
    n_ffs = draw(st.integers(2, 7))
    ffs = sorted(draw(st.sets(st.integers(0, n_ffs - 1), min_size=2)))
    reference = len(ffs)
    lower = np.array(draw(st.lists(st.integers(-6, 0), min_size=n_ffs, max_size=n_ffs)), float)
    upper = np.array(draw(st.lists(st.integers(0, 6), min_size=n_ffs, max_size=n_ffs)), float)
    targets = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(-4, 4)), min_size=n_ffs, max_size=n_ffs))
    )
    point = [draw(st.integers(int(lower[ff]), int(upper[ff]))) for ff in ffs] + [0]
    positions = st.integers(0, reference - 1)
    ends = [
        (draw(positions), draw(st.integers(0, reference)))
        for _ in range(draw(st.integers(0, 14)))
    ]
    ends = [pair if draw(st.booleans()) else pair[::-1] for pair in ends]
    self_edge = draw(positions)
    ends += [(self_edge, self_edge), (0, reference), (reference, reference - 1)]
    slack = draw(st.lists(st.integers(0, 3), min_size=len(ends), max_size=len(ends)))
    if draw(st.integers(0, 3)) == 0:
        slack[0] = -1
    ends = draw(st.permutations(ends))
    weights = [point[u] - point[v] + extra for (u, v), extra in zip(ends, slack, strict=True)]
    rows = (
        np.array([u for u, _ in ends], dtype=np.intp),
        np.array([v for _, v in ends], dtype=np.intp),
        np.array(weights, dtype=float),
    )
    problem = SampleProblem(np.zeros(0), np.zeros(0), lower, upper)
    return problem, ffs, rows, targets


def model_concentration_arrays(problem, ffs, rows, targets):
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
    reference = len(ffs)
    for u, v, weight in zip(*(array.tolist() for array in rows), strict=True):
        if u == reference:
            model.add_constr(-1.0 * x_vars[ffs[v]] <= weight)
        elif v == reference:
            model.add_constr(1.0 * x_vars[ffs[u]] <= weight)
        else:
            model.add_constr(x_vars[ffs[u]] - x_vars[ffs[v]] <= weight)
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


class TestSupportCheckAgainstLists:
    """The cover pre-check and index-array scope rows against the
    list-based check they replace (``tests/core/list_support_check.py``),
    whose constraints reduce to the tightest one per ordered pair."""

    @given(support_checks())
    @settings(max_examples=200)
    def test_rows_and_witness_match_the_list_oracle(self, case):
        topology, problem, region, support = case
        solver = PerSampleSolver(topology)
        found = solver._feasible_assignment(problem, region, support, {})
        constraints, oracle_witness = ListSupportCheck(topology).check(problem, region, support)
        assert (found is None) == (oracle_witness is None)
        if constraints is None:
            return
        ffs = sorted(support)
        position = {ff: p for p, ff in enumerate(ffs)}
        position[REFERENCE] = len(ffs)
        u, v, w = solver._scope_rows(problem, ffs, region)
        tightest = {}
        for c in constraints:
            pair = (position[c.u], position[c.v])
            tightest[pair] = min(tightest.get(pair, c.weight), c.weight)
        assert list(zip(u.tolist(), v.tolist(), w.tolist(), strict=True)) == [
            (*pair, tightest[pair]) for pair in sorted(tightest)
        ]
        if found is None:
            return
        rows, witness = found
        assert all(np.array_equal(a, b) for a, b in zip(rows, (u, v, w), strict=True))
        assert list(witness) == list(oracle_witness)
        integral = all(
            float(x).is_integer()
            for x in (*w.tolist(), *problem.lower[ffs], *problem.upper[ffs])
        )
        if integral:
            assert witness == oracle_witness
        values = [witness[ff] for ff in ffs]
        assert check_assignment(values, rows, problem.lower[ffs], problem.upper[ffs])


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
