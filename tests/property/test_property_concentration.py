"""Property-based tests for concentration and the reduced scope rows.

* :func:`closed_form_concentration` in discrete mode equals a brute-force
  oracle that enumerates every integer point of a small box;
* in continuous mode the solver's concentration objective equals scipy
  HiGHS on :func:`concentration_lp`, for every support size;
* concentrated values do not depend on the order of the constraints;
* :func:`tightest_rows` keeps exactly one row per ordered pair, the
  tightest, whatever the row order.

``max_examples`` comes from the hypothesis profile (CI also runs this
module under the ``deep`` profile).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.difference import tightest_rows
from repro.core.sample_solver import (
    ConstraintTopology,
    PerSampleSolver,
    SampleProblem,
    closed_form_concentration,
    concentration_lp,
)
from repro.milp.backends import HAVE_SCIPY, solve_lp
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


def lexicographic_oracle(lower, upper, rows, targets):
    """The least ``(sum |x - t|, sum |x|, x)`` over the integer points of
    the box that satisfy every row (sums rounded to 1e-9), or ``None``."""
    u, v, w = (array.tolist() for array in rows)
    axes = [
        range(math.ceil(low - 1e-9), math.floor(high + 1e-9) + 1)
        for low, high in zip(lower.tolist(), upper.tolist(), strict=True)
    ]
    best = None
    for point in itertools.product(*axes):
        x = (*point, 0)
        if any(x[a] - x[b] > c + 1e-9 for a, b, c in zip(u, v, w, strict=True)):
            continue
        key = (
            round(sum(abs(p - t) for p, t in zip(point, targets.tolist(), strict=True)), 9),
            round(sum(abs(p) for p in point), 9),
            *point,
        )
        if best is None or key < best:
            best = key
    return None if best is None else [float(p) for p in best[2:]]


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
        c, a_ub, b_ub, lower, upper = concentration_lp(problem, ffs, rows, targets)
        reference = solve_lp(c, a_ub, b_ub, None, None, lower, upper, backend="scipy")
        assert reference.status.has_solution
        objective = sum(abs(x - t) for x, t in zip(values, targets.tolist(), strict=True))
        assert objective == pytest.approx(reference.objective, abs=1e-9)


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
