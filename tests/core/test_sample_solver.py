"""Tests for the per-sample solver (graph and MILP backends)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import sample_solver
from repro.core.sample_solver import ConstraintTopology, PerSampleSolver, SampleProblem
from repro.milp.backends import HAVE_SCIPY
from tests.core.concentration_lp import highs_objective


def chain_topology(n_ffs=4):
    """ff0 -> ff1 -> ... -> ff{n-1} as a simple chain of sequential edges."""
    launch = np.arange(n_ffs - 1)
    capture = np.arange(1, n_ffs)
    return ConstraintTopology(
        ff_names=[f"ff{i}" for i in range(n_ffs)],
        edge_launch=launch,
        edge_capture=capture,
    )


def make_problem(topology, setup, hold, bound=20.0):
    n = topology.n_ffs
    return SampleProblem(
        setup_bound=np.asarray(setup, dtype=float),
        hold_bound=np.asarray(hold, dtype=float),
        lower=np.full(n, -bound),
        upper=np.full(n, bound),
    )


def verify_solution(topology, problem, solution):
    """Check the returned tuning values satisfy every edge constraint."""
    x = np.zeros(topology.n_ffs)
    for ff, value in solution.tunings.items():
        x[ff] = value
        assert problem.lower[ff] - 1e-6 <= value <= problem.upper[ff] + 1e-6
    for k in range(topology.n_edges):
        i, j = int(topology.edge_launch[k]), int(topology.edge_capture[k])
        assert x[i] - x[j] <= problem.setup_bound[k] + 1e-6
        assert x[j] - x[i] <= problem.hold_bound[k] + 1e-6


class TestTopology:
    def test_from_compiled_system(self, small_design, small_system):
        topology = small_system.topology
        assert topology.n_ffs == small_design.netlist.n_flip_flops
        assert topology.n_edges == small_system.n_edges > 0

    def test_neighbors(self):
        topology = chain_topology(4)
        assert topology.neighbors(1) == {0, 2}
        assert topology.neighbors(0) == {1}

    def test_edges_of_ff(self):
        topology = chain_topology(4)
        assert topology.edges_of_ff[1] == [0, 1]


class TestFingerprints:
    def test_topology_fingerprint_stable_and_content_keyed(self):
        a = chain_topology(4)
        b = chain_topology(4)
        c = chain_topology(5)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_solver_state_fingerprint_covers_settings(self):
        topology = chain_topology(4)
        base = PerSampleSolver(topology)
        same = PerSampleSolver(topology)
        assert base.state_fingerprint() == same.state_fingerprint()
        assert PerSampleSolver(topology, pool_hops=2).state_fingerprint() != base.state_fingerprint()
        assert (
            PerSampleSolver(topology, backend="milp").state_fingerprint()
            != base.state_fingerprint()
        )
        assert (
            PerSampleSolver(chain_topology(5)).state_fingerprint() != base.state_fingerprint()
        )


@pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy's HiGHS")
class TestConcentrationFastPath:
    """Every support's concentrated values (closed form for one or two
    buffers, the min-cost flow for more) reach the least
    ``sum |x - target|`` that scipy HiGHS finds on the support's LP."""

    @staticmethod
    def _solve_and_check(topology, problem, targets=None):
        supports = []

        class Recording(PerSampleSolver):
            def _concentrated_values(self, problem, ffs, rows, targets):
                values = super()._concentrated_values(problem, ffs, rows, targets)
                supports.append((ffs, rows, targets, values))
                return values

        solution = Recording(topology, integral=False).solve(problem, targets=targets)
        verify_solution(topology, problem, solution)
        assert supports
        for ffs, rows, support_targets, values in supports:
            assert values is not None
            objective = sum(
                abs(x - t) for x, t in zip(values, support_targets[ffs].tolist(), strict=True)
            )
            assert objective == pytest.approx(
                highs_objective(problem, ffs, rows, support_targets), abs=1e-6
            )
        return solution, [len(ffs) for ffs, *_ in supports]

    def test_single_support_matches_scipy(self):
        topology = chain_topology(2)
        problem = make_problem(topology, setup=[-3.0], hold=[10.0])
        _, sizes = self._solve_and_check(topology, problem)
        assert sizes == [1]

    def test_single_support_with_target(self):
        topology = chain_topology(2)
        problem = make_problem(topology, setup=[-3.0], hold=[10.0])
        self._solve_and_check(topology, problem, np.array([0.0, 5.0]))

    def test_multi_support_matches_scipy(self):
        topology = chain_topology(5)
        problem = make_problem(
            topology,
            setup=[-4.0, -6.0, -2.0, 8.0],
            hold=[10.0, 10.0, 10.0, 10.0],
            bound=6.0,
        )
        solution, sizes = self._solve_and_check(topology, problem)
        assert solution.feasible
        assert max(sizes) >= 3

    def test_integral_single_support_respects_grid(self):
        topology = chain_topology(2)
        problem = make_problem(topology, setup=[-3.0], hold=[10.0])
        solver = PerSampleSolver(topology, integral=True)
        solution = solver.solve(problem)
        verify_solution(topology, problem, solution)
        for value in solution.tunings.values():
            assert value == round(value)


class TestGraphBackend:
    def test_no_violation_no_tuning(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, 5, 5], [5, 5, 5])
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.feasible
        assert solution.n_adjusted == 0

    def test_single_violation_single_buffer(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, -3, 5], [10, 10, 10])
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.feasible
        assert solution.n_adjusted == 1
        verify_solution(topology, problem, solution)

    def test_concentration_minimises_absolute_value(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, -3, 5], [10, 10, 10])
        solution = PerSampleSolver(topology).solve(problem)
        (value,) = solution.tunings.values()
        assert abs(value) == pytest.approx(3.0, abs=1e-6)

    def test_ripple_requires_two_buffers(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [1, -3, 1], [10, 10, 10])
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.feasible
        assert solution.n_adjusted == 2
        verify_solution(topology, problem, solution)

    def test_unrescuable_when_exceeding_ranges(self):
        topology = chain_topology(3)
        problem = make_problem(topology, [5, -50], [10, 10], bound=20.0)
        solution = PerSampleSolver(topology).solve(problem)
        assert not solution.feasible
        assert solution.unrescuable_regions == 1

    def test_unrescuable_when_endpoints_not_candidates(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, -3, 5], [10, 10, 10])
        candidates = np.array([True, False, False, True])
        solution = PerSampleSolver(topology).solve(problem, candidates=candidates)
        assert not solution.feasible

    def test_two_independent_regions(self):
        topology = chain_topology(8)
        setup = [5, -2, 5, 5, 5, -4, 5]
        problem = make_problem(topology, setup, [10] * 7)
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.feasible
        assert solution.n_adjusted == 2
        verify_solution(topology, problem, solution)

    def test_hold_violation_repaired(self):
        topology = chain_topology(3)
        # Hold violation on edge (ff0, ff1): x1 - x0 <= -2 requires x1 < x0.
        problem = make_problem(topology, [5, 5], [-2, 10])
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.feasible
        assert solution.n_adjusted >= 1
        verify_solution(topology, problem, solution)

    def test_discrete_mode_returns_integers(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, -3, 5], [10, 10, 10])
        solution = PerSampleSolver(topology, integral=True).solve(problem)
        for value in solution.tunings.values():
            assert value == int(value)

    def test_targets_pull_solution_toward_average(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, -3, 5], [10, 10, 10])
        plain = PerSampleSolver(topology).solve(problem)
        (ff,) = plain.tunings.keys()
        targets = np.zeros(topology.n_ffs)
        targets[ff] = -6.0 if plain.tunings[ff] < 0 else 6.0
        targeted = PerSampleSolver(topology).solve(problem, targets=targets)
        assert targeted.feasible
        # The targeted solution must be at least as close to the target.
        assert abs(targeted.tunings.get(ff, 0.0) - targets[ff]) <= abs(
            plain.tunings[ff] - targets[ff]
        ) + 1e-9

    def test_concentration_disabled_still_feasible(self):
        topology = chain_topology(4)
        problem = make_problem(topology, [5, -3, 5], [10, 10, 10])
        solution = PerSampleSolver(topology, concentrate=False).solve(problem)
        assert solution.feasible
        verify_solution(topology, problem, solution)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            PerSampleSolver(chain_topology(3), backend="cplex")

    @pytest.mark.parametrize("lp_backend", ["hihgs", "HiGHS", ""])
    def test_invalid_lp_backend_rejected(self, lp_backend):
        with pytest.raises(ValueError, match="unknown LP backend"):
            PerSampleSolver(chain_topology(3), lp_backend=lp_backend)


class TestClosedFormConcentration:
    """The canonical optimum: least ``sum |x - t|``, then least
    ``sum |x|``, then the lexicographically smallest point."""

    @staticmethod
    def _solve(lower, upper, triples, targets, integral=True):
        u, v, w = zip(*triples, strict=True) if triples else ((), (), ())
        rows = (np.array(u, dtype=np.intp), np.array(v, dtype=np.intp), np.array(w, dtype=float))
        return sample_solver.closed_form_concentration(
            np.array(lower, dtype=float), np.array(upper, dtype=float), rows,
            np.array(targets, dtype=float), integral,
        )

    def test_one_buffer_clamps_its_target(self):
        # x <= 2 and -x <= 3: the target 5 clamps to 2.
        assert self._solve([-10], [10], [(0, 1, 2.0), (1, 0, 3.0)], [5.0]) == [2.0]
        assert self._solve([-10], [10], [(0, 1, 2.0), (1, 0, 3.0)], [5.0], False) == [2.0]

    @pytest.mark.parametrize(
        "target, expected", [(2.5, 2.0), (3.5, 3.0), (-2.5, -2.0), (-3.5, -3.0), (2.25, 2.0)]
    )
    def test_grid_values_are_nearest_with_ties_toward_zero(self, target, expected):
        assert self._solve([-10], [10], [], [target]) == [expected]

    def test_a_binding_band_splits_toward_the_smaller_first_value(self):
        # x_1 - x_0 >= 3 with both targets 0: every split costs 3, so the
        # smaller x_0 wins.
        assert self._solve([-10, -10], [10, 10], [(0, 1, -3.0)], [0.0, 0.0]) == [-3.0, 0.0]
        assert self._solve([-1, -10], [10, 10], [(0, 1, -3.0)], [0.0, 0.0]) == [-1.0, 2.0]

    def test_targets_pull_both_values(self):
        # x_0 - x_1 <= 1 with targets (4, 0): the band forces a cost of 3,
        # split so that sum |x| is least, then x_0 is least.
        assert self._solve([-10, -10], [10, 10], [(0, 1, 1.0)], [4.0, 0.0]) == [1.0, 0.0]

    def test_empty_feasible_set_is_none(self):
        assert self._solve([-10], [10], [(0, 1, -4.0), (1, 0, 3.0)], [0.0]) is None
        assert self._solve([-10, -10], [10, 10], [(0, 0, -1.0)], [0.0, 0.0]) is None
        assert self._solve([0, 0], [1, 1], [(0, 1, -3.0)], [0.0, 0.0]) is None

    def test_discrete_mode_rounds_fractional_rows_inward(self):
        assert self._solve([-10], [10], [(1, 0, -1.5)], [0.0]) == [2.0]
        assert self._solve([-10], [10], [(1, 0, -1.5)], [0.0], False) == [1.5]


class TestConcentrationCounters:
    """Every fallback of concentration to the Bellman–Ford witness is
    counted in :mod:`repro.obs`, and so is every min-cost flow."""

    FALLBACKS = (
        "solver.concentrate.fallback.closed_form_empty",
        "solver.concentrate.fallback.closed_form_check",
        "solver.concentrate.fallback.flow_empty",
        "solver.concentrate.fallback.flow_check",
    )

    @staticmethod
    def _counts():
        from repro.obs.metrics import get_registry

        return dict(get_registry().snapshot()["counters"])

    def _delta(self, before):
        after = self._counts()
        return {name: after.get(name, 0) - before.get(name, 0) for name in after}

    @staticmethod
    def _two_buffer_region():
        topology = chain_topology(4)
        return topology, make_problem(topology, [1, -3, 1], [10, 10, 10])

    def test_closed_form_without_a_point_falls_back(self, monkeypatch):
        monkeypatch.setattr(sample_solver, "closed_form_concentration", lambda *args: None)
        topology, problem = self._two_buffer_region()
        before = self._counts()
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.feasible
        verify_solution(topology, problem, solution)
        assert self._delta(before)["solver.concentrate.fallback.closed_form_empty"] == 1

    def test_closed_form_point_failing_the_check_falls_back(self, monkeypatch):
        monkeypatch.setattr(sample_solver, "check_assignment", lambda *args, **kwargs: False)
        topology, problem = self._two_buffer_region()
        before = self._counts()
        PerSampleSolver(topology).solve(problem)
        assert self._delta(before)["solver.concentrate.fallback.closed_form_check"] == 1

    def test_flow_fallbacks_are_counted(self, monkeypatch):
        topology = chain_topology(5)
        problem = make_problem(topology, [-4.0, -6.0, -2.0, 8.0], [10.0] * 4, bound=6.0)
        solver = PerSampleSolver(topology)
        before = self._counts()
        reference = solver.solve(problem)
        assert len(reference.tunings) >= 3
        assert self._delta(before).get("solver.concentrate.flow_solves", 0) >= 1

        monkeypatch.setattr(sample_solver, "check_assignment", lambda *args, **kwargs: False)
        before = self._counts()
        fallback = solver.solve(problem)
        assert self._delta(before)["solver.concentrate.fallback.flow_check"] >= 1
        verify_solution(topology, problem, fallback)

        monkeypatch.setattr(sample_solver, "flow_concentration", lambda *args: None)
        before = self._counts()
        solver.solve(problem)
        assert self._delta(before)["solver.concentrate.fallback.flow_empty"] >= 1

    def test_a_flow_on_the_flow_tight_design_never_falls_back(self):
        """s13207 at 0.3 scale and target sigma 0 (the flow_tight
        workload's design, with fewer samples): concentration solves
        min-cost flows and never returns a witness."""
        from repro.circuit.suite import build_suite_circuit
        from repro.core import BufferInsertionFlow, FlowConfig

        design = build_suite_circuit("s13207", scale=0.3, seed=5)
        config = FlowConfig(
            n_samples=200, n_eval_samples=50, seed=1, target_sigma=0.0, executor="serial"
        )
        before = self._counts()
        BufferInsertionFlow(design, config).run()
        delta = self._delta(before)
        assert delta.get("solver.concentrate.flow_solves", 0) > 0
        assert {name: delta.get(name, 0) for name in self.FALLBACKS} == dict.fromkeys(
            self.FALLBACKS, 0
        )


class TestNoLpEngine:
    def test_a_flow_imports_no_lp_engine(self):
        """Concentration solves no LP, so a serial flow on the flow_tight
        design (fewer samples) leaves the LP engines unimported."""
        code = (
            "import sys\n"
            "from repro.circuit.suite import build_suite_circuit\n"
            "from repro.core import BufferInsertionFlow, FlowConfig\n"
            "design = build_suite_circuit('s13207', scale=0.3, seed=5)\n"
            "config = FlowConfig(n_samples=200, n_eval_samples=50, seed=1,\n"
            "                    target_sigma=0.0, executor='serial')\n"
            "BufferInsertionFlow(design, config).run()\n"
            "loaded = [m for m in ('repro.milp.backends', 'scipy.optimize') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestWitnessReuse:
    def test_no_support_is_solved_twice_in_a_region(self, monkeypatch):
        solved = []
        solve_difference_system = sample_solver.solve_difference_system

        def counting(variables, constraints, lower=None, upper=None):
            solved.append(tuple(variables))
            return solve_difference_system(variables, constraints, lower, upper)

        monkeypatch.setattr(sample_solver, "solve_difference_system", counting)
        topology = chain_topology(4)
        # One violated edge, so one region; it needs two buffers, so the
        # greedy cover, the expansion and pruning all run, and
        # concentration reuses the final support's witness.
        problem = make_problem(topology, [1, -3, 1], [10, 10, 10])
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.n_adjusted == 2
        assert solved
        assert len(solved) == len(set(solved))


class TestCoverPreCheck:
    def test_only_covering_supports_build_scope_rows(self, monkeypatch):
        """A support that leaves a violated region edge with no endpoint
        in it is rejected before its scope is built, so every scope build
        reaches Bellman–Ford and no such support does."""
        checked, built, solved = [], [], []
        feasible_assignment = PerSampleSolver._feasible_assignment
        scope_edges = PerSampleSolver._scope_edges
        solve_difference_system = sample_solver.solve_difference_system

        def recording(self, problem, region_edges, support, witnesses):
            checked.append(frozenset(support))
            return feasible_assignment(self, problem, region_edges, support, witnesses)

        def counting_scope(self, support, region_edges):
            built.append(frozenset(support))
            return scope_edges(self, support, region_edges)

        def counting_solve(*args):
            solved.append(tuple(args[0]))
            return solve_difference_system(*args)

        monkeypatch.setattr(PerSampleSolver, "_feasible_assignment", recording)
        monkeypatch.setattr(PerSampleSolver, "_scope_edges", counting_scope)
        monkeypatch.setattr(sample_solver, "solve_difference_system", counting_solve)
        topology = chain_topology(4)
        # The violated edges ff0 -> ff1 and ff1 -> ff2 form one region that
        # needs two buffers, {ff0, ff1}; pruning then proposes {ff0}, which
        # leaves ff1 -> ff2 with no buffered endpoint.
        problem = make_problem(topology, [-3, -3, 1], [10, 10, 10])
        solution = PerSampleSolver(topology).solve(problem)
        assert solution.n_adjusted == 2
        assert frozenset({0}) in checked
        assert built
        assert len(built) == len(solved)
        assert all({0, 1} & set(support) and {1, 2} & set(support) for support in solved)


#: The LP engines installed here.
LP_ENGINES = ("simplex", "scipy") if HAVE_SCIPY else ("simplex",)


class TestMilpBackend:
    @pytest.mark.parametrize(
        "setup",
        [
            [5, -3, 5],
            [1, -3, 1],
            [-2, 5, -1],
            # Six flip-flops, two regions whose pools overlap: one model
            # repairs both, so no repair is counted twice.
            [-2, 5, 5, -2, 5],
        ],
    )
    def test_milp_matches_graph_on_chains(self, setup):
        topology = chain_topology(len(setup) + 1)
        problem = make_problem(topology, setup, [10] * len(setup))
        graph_solution = PerSampleSolver(topology).solve(problem)
        for lp_backend in LP_ENGINES:
            solver = PerSampleSolver(topology, lp_backend=lp_backend)
            milp_solution = solver.solve_with_milp(problem)
            assert milp_solution.feasible == graph_solution.feasible
            assert milp_solution.n_adjusted <= graph_solution.n_adjusted
            verify_solution(topology, problem, milp_solution)

    def test_milp_no_violation(self):
        topology = chain_topology(3)
        problem = make_problem(topology, [5, 5], [10, 10])
        solution = PerSampleSolver(topology).solve_with_milp(problem)
        assert solution.feasible and solution.n_adjusted == 0

    def test_milp_unrescuable(self):
        topology = chain_topology(3)
        problem = make_problem(topology, [5, -50], [10, 10], bound=20.0)
        solution = PerSampleSolver(topology).solve_with_milp(problem)
        assert not solution.feasible


class TestAgainstRealCircuit:
    def test_graph_solver_close_to_milp_optimum(self, small_design, small_samples):
        """On the first 25 violated real samples the greedy graph solver
        finds the exact MILP optimum's buffer count."""
        from repro.core.config import BufferSpec
        from repro.timing.period import sample_min_periods

        from repro.core.compiled import ensure_compiled_system

        analysis = sample_min_periods(small_design, constraint_samples=small_samples)
        period = analysis.target_period(1.0)
        spec = BufferSpec()
        step = spec.step_size(period)
        setup = np.floor(small_samples.setup_bounds(period) / step + 1e-9)
        hold = np.floor(small_samples.hold_bounds() / step + 1e-9)
        topology = ensure_compiled_system(small_design).topology
        lower = np.full(topology.n_ffs, -20.0)
        upper = np.full(topology.n_ffs, 20.0)
        solver = PerSampleSolver(topology)

        checked = 0
        for s in range(small_samples.n_samples):
            problem = SampleProblem(setup[:, s], hold[:, s], lower, upper)
            if problem.violated_edges().size == 0:
                continue
            graph_solution = solver.solve(problem)
            milp_solution = solver.solve_with_milp(problem)
            checked += 1
            assert milp_solution.n_adjusted == graph_solution.n_adjusted
            if checked == 25:
                break
        assert checked == 25
