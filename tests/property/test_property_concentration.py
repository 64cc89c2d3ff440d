"""Property-based tests for concentration and the reduced scope rows.

* :func:`closed_form_concentration` (one or two buffers) and
  :func:`flow_concentration` (one to four here; three or more in the
  solver) in discrete mode equal a brute-force oracle that enumerates
  every integer point of a small box, and so do the support's values,
  split into components;
* in continuous mode the solver's concentration objective equals scipy
  HiGHS on the concentration LP (``tests/core/concentration_lp.py``),
  for every support size;
* concentrated values do not depend on the order of the constraints;
* :func:`tightest_rows` keeps exactly one row per ordered pair, the
  tightest, whatever the row order.

``max_examples`` comes from the hypothesis profile (CI also runs this
module under the ``deep`` profile).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.difference import tightest_rows
from repro.core.sample_solver import (
    ConstraintTopology,
    PerSampleSolver,
    SampleProblem,
    closed_form_concentration,
    flow_concentration,
)
from repro.milp.backends import HAVE_SCIPY
from tests.core.concentration_lp import highs_objective
from tests.property.test_property_sample_solver import support_checks

#: Targets as the flow produces them: 0 in step 1, averages in step 2
#: (half-integers whenever two samples split evenly).
TARGETS = st.one_of(
    st.just(0.0),
    st.integers(-9, 9).map(lambda k: k / 2.0),
    st.floats(-5, 5, allow_nan=False),
)


def _rows(triples):
    if not triples:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    u, v, w = zip(*triples, strict=True)
    return np.array(u, dtype=np.intp), np.array(v, dtype=np.intp), np.array(w, dtype=float)


@st.composite
def small_boxes(draw):
    """One or two integer variables on a small box, random rows over
    them and the reference (duplicate pairs and ``u == v`` rows
    included, the system possibly empty), and targets.  One case in
    three has weights and bounds off the integer grid (quarters)."""
    n = draw(st.integers(1, 2))
    scale = 4.0 if draw(st.integers(0, 2)) == 0 else 1.0
    lower = np.array([draw(st.integers(-20, 0)) / scale for _ in range(n)])
    upper = np.array([draw(st.integers(0, 20)) / scale for _ in range(n)])
    pairs = st.tuples(st.integers(0, n), st.integers(0, n))
    triples = [
        (u, v, draw(st.integers(-16, 24)) / scale)
        for u, v in draw(st.lists(pairs, max_size=10))
    ]
    targets = np.array([draw(TARGETS) for _ in range(n)])
    return lower, upper, triples, targets


@st.composite
def flow_boxes(draw):
    """One to four integer variables on a box of at most 13 values each
    (one case in three with bounds and weights in quarters), rows
    around a random integer point of the box (duplicate pairs,
    reference rows and ``u == v`` rows; a negative slack, one row in
    six, can empty the feasible set), and targets.  A reference row
    ``-x_i <= -p_i + s`` lifts a coordinate's range above its targets
    and 0, so breakpoints fall below it, and a node whose breakpoints
    all fall below it starts as a demand node."""
    n = draw(st.integers(1, 4))
    scale = 4 if draw(st.integers(0, 2)) == 0 else 1
    lower = np.array([draw(st.integers(-6 * scale, 0)) / scale for _ in range(n)])
    upper = np.array([draw(st.integers(0, 6 * scale)) / scale for _ in range(n)])
    point = [
        draw(st.integers(math.ceil(low), math.floor(high)))
        for low, high in zip(lower, upper, strict=True)
    ] + [0]
    pairs = st.tuples(st.integers(0, n), st.integers(0, n))
    slack = st.integers(-scale, 4 * scale).map(lambda k: k / scale)
    triples = [
        (u, v, point[u] - point[v] + (draw(slack) if draw(st.integers(0, 5)) else -1.0))
        for u, v in draw(st.lists(pairs, max_size=3 * n + 4))
    ]
    targets = np.array([draw(TARGETS) for _ in range(n)])
    return lower, upper, triples, targets


def lexicographic_oracle(lower, upper, rows, targets):
    """The least ``(sum |x - t|, sum |x|, x)`` over the integer points of
    the box that satisfy every row (sums rounded to 1e-9), or ``None``.

    numpy enumerates the box and keeps the feasible points within 1e-6
    of the least ``sum |x - t|``; the exact key picks among those."""
    n = len(lower)
    axes = [
        np.arange(math.ceil(low - 1e-9), math.floor(high + 1e-9) + 1, dtype=float)
        for low, high in zip(lower.tolist(), upper.tolist(), strict=True)
    ]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    x = np.hstack([points, np.zeros((points.shape[0], 1))])
    feasible = np.ones(points.shape[0], dtype=bool)
    for u, v, w in zip(*(array.tolist() for array in rows), strict=True):
        feasible &= x[:, u] - x[:, v] <= w + 1e-9
    points = points[feasible]
    if points.shape[0] == 0:
        return None
    spread = np.abs(points - targets).sum(axis=1)
    t = targets.tolist()

    def key(point):
        return (
            round(sum(abs(p - q) for p, q in zip(point, t, strict=True)), 9),
            round(sum(abs(p) for p in point), 9),
            *point,
        )

    return min(points[spread <= spread.min() + 1e-6].tolist(), key=key)


def values_solver(integral):
    """A solver for :meth:`PerSampleSolver._concentrated_values`, which
    reads only the problem, support, rows and targets it is given."""
    return PerSampleSolver(ConstraintTopology(["ff0"], [], []), integral=integral)


@st.composite
def feasible_supports(draw, integral):
    """A support of one to five buffers with scope rows around a feasible
    point (duplicate pairs, reference rows, ``u == v`` rows), its
    windows and targets, shaped like the solver's concentration inputs:
    every window holds 0, as the flow's do.  In continuous mode the
    point, windows and slacks are multiples of 1/7."""
    n = draw(st.integers(1, 5))
    unit = 1.0 if integral else 7.0
    grid = st.integers(-6 * int(unit), 6 * int(unit)).map(lambda k: k / unit)
    point = [draw(grid) for _ in range(n)] + [0.0]
    slack = st.integers(0, 4 * int(unit)).map(lambda k: k / unit)
    lower = np.array([min(p, 0.0) - draw(slack) for p in point[:n]])
    upper = np.array([max(p, 0.0) + draw(slack) for p in point[:n]])
    pairs = st.tuples(st.integers(0, n), st.integers(0, n))
    triples = [
        (u, v, point[u] - point[v] + draw(st.integers(0, 3 * int(unit))) / unit)
        for u, v in draw(st.lists(pairs, min_size=1, max_size=3 * n + 4))
    ]
    problem = SampleProblem(np.zeros(0), np.zeros(0), lower, upper)
    targets = np.array([draw(TARGETS) for _ in range(n)])
    return problem, list(range(n)), triples, targets


class TestFlowOracle:
    @given(flow_boxes())
    @example((np.array([-6.0]), np.array([6.0]), [(1, 0, -3.0)], np.array([5.0])))
    @example(
        (
            np.full(3, -6.0),
            np.full(3, 6.0),
            [(3, 0, -4.0), (0, 1, 1.0), (1, 2, 0.0), (1, 1, 0.0), (0, 1, 3.0)],
            np.array([1.5, 0.0, 0.0]),
        )
    )
    def test_discrete_mode_matches_the_brute_force_oracle(self, case):
        """The second example lifts ``x_0`` to at least 4, above all its
        breakpoints (1, 2 and 0), so node 0 starts as a demand node; the
        first only folds the breakpoint at 0."""
        lower, upper, triples, targets = case
        rows = _rows(triples)
        expected = lexicographic_oracle(lower, upper, rows, targets)
        assert flow_concentration(lower, upper, rows, targets, True) == expected
        assert flow_concentration(
            lower, upper, tightest_rows(rows, len(lower)), targets, True
        ) == expected

    @given(flow_boxes())
    def test_support_values_match_the_oracle(self, case):
        """The solver's values, split into components, are the oracle's.
        A covering support's scope rows never join the reference to
        itself, so such rows are left out."""
        lower, upper, triples, targets = case
        n = len(lower)
        rows = tightest_rows(_rows([row for row in triples if row[:2] != (n, n)]), n)
        expected = lexicographic_oracle(lower, upper, rows, targets)
        problem = SampleProblem(np.zeros(0), np.zeros(0), lower, upper)
        values = values_solver(integral=True)._concentrated_values(
            problem, list(range(len(lower))), rows, targets
        )
        assert values == expected


class TestClosedFormOracle:
    @given(small_boxes())
    def test_discrete_mode_matches_the_brute_force_oracle(self, case):
        lower, upper, triples, targets = case
        rows = _rows(triples)
        expected = lexicographic_oracle(lower, upper, rows, targets)
        assert closed_form_concentration(lower, upper, rows, targets, True) == expected
        assert closed_form_concentration(
            lower, upper, tightest_rows(rows, len(lower)), targets, True
        ) == expected

    @given(small_boxes(), st.randoms(use_true_random=False))
    def test_closed_form_ignores_row_order(self, case, random):
        lower, upper, triples, targets = case
        shuffled = random.sample(triples, len(triples))
        for integral in (True, False):
            assert closed_form_concentration(
                lower, upper, _rows(shuffled), targets, integral
            ) == closed_form_concentration(lower, upper, _rows(triples), targets, integral)


@pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy's HiGHS")
class TestContinuousObjectiveAgainstHighs:
    @given(feasible_supports(integral=False))
    def test_objective_matches_highs_for_every_support_size(self, case):
        problem, ffs, triples, targets = case
        rows = tightest_rows(_rows(triples), len(ffs))
        solver = values_solver(integral=False)
        values = solver._concentrated_values(problem, ffs, rows, targets)
        assert values is not None
        objective = sum(abs(x - t) for x, t in zip(values, targets.tolist(), strict=True))
        assert objective == pytest.approx(
            highs_objective(problem, ffs, rows, targets), abs=1e-9
        )


def _permuted(topology, problem, region, order):
    """The same constraints with the edges renumbered: new edge ``k`` is
    old edge ``order[k]``."""
    renumbered = ConstraintTopology(
        ff_names=topology.ff_names,
        edge_launch=topology.edge_launch[order],
        edge_capture=topology.edge_capture[order],
    )
    reordered = SampleProblem(
        problem.setup_bound[order], problem.hold_bound[order], problem.lower, problem.upper
    )
    new_index = np.argsort(order)
    return renumbered, reordered, sorted(new_index[region].tolist())


class TestRowOrder:
    @given(
        feasible_supports(integral=True),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_concentration_ignores_row_order(self, case, integral, random):
        """The rows the solver hands to concentration are reduced with
        :func:`tightest_rows`; shuffled beforehand, they give the same
        values for every support size."""
        problem, ffs, triples, targets = case
        solver = values_solver(integral)
        shuffled = random.sample(triples, len(triples))
        values = [
            solver._concentrated_values(problem, ffs, tightest_rows(_rows(t), len(ffs)), targets)
            for t in (triples, shuffled)
        ]
        assert values[0] is not None
        assert values[0] == values[1]

    @given(support_checks(), TARGETS, st.randoms(use_true_random=False))
    def test_region_values_ignore_edge_order(self, case, target, random):
        """Renumbering a topology's edges reorders every support's scope
        rows; the concentrated region values stay the same."""
        topology, problem, region, support = case
        integral = all(
            float(b).is_integer()
            for b in (*problem.setup_bound, *problem.hold_bound, *problem.lower, *problem.upper)
        )
        targets = np.full(topology.n_ffs, target)
        order = np.array(random.sample(range(topology.n_edges), topology.n_edges))
        renumbered, reordered, new_region = _permuted(topology, problem, region, order)
        before = PerSampleSolver(topology, integral=integral)._concentrate(
            problem, region, support, targets, {}
        )
        after = PerSampleSolver(renumbered, integral=integral)._concentrate(
            reordered, new_region, support, targets, {}
        )
        assert before == after


@st.composite
def row_sets(draw):
    """Rows over up to four variables and the reference, with repeats."""
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, n), st.integers(0, n))
    triples = [(u, v, draw(st.integers(-5, 5)) / 2.0) for u, v in draw(st.lists(pairs))]
    return n, triples


class TestTightestRows:
    @given(row_sets(), st.randoms(use_true_random=False))
    def test_invariant_under_row_permutation(self, case, random):
        n, triples = case
        shuffled = random.sample(triples, len(triples))
        for a, b in zip(
            tightest_rows(_rows(triples), n), tightest_rows(_rows(shuffled), n), strict=True
        ):
            assert a.tolist() == b.tolist()

    @given(row_sets())
    def test_one_row_per_pair_with_its_least_weight(self, case):
        n, triples = case
        least = {}
        for u, v, w in triples:
            least[u, v] = min(least.get((u, v), w), w)
        u, v, w = tightest_rows(_rows(triples), n)
        assert list(zip(u.tolist(), v.tolist(), strict=True)) == sorted(least)
        assert w.tolist() == [least[pair] for pair in sorted(least)]
