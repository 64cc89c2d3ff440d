"""Scheduler tests: batching, caching, adoption, evaluation sweep."""

import numpy as np
import pytest

from repro.core.compiled import ensure_compiled_system
from repro.core.config import BufferSpec, FlowConfig
from repro.core.flow import BufferInsertionFlow
from repro.core.sample_solver import PerSampleSolver
from repro.engine import (
    BatchProblem,
    EngineStats,
    ProcessPoolExecutor,
    ResultCache,
    SampleScheduler,
    SerialExecutor,
    SharedMatrixStore,
    default_chunk_size,
    fingerprint_arrays,
    make_chunks,
    run_pending,
    shm_enabled,
)
from repro.timing.period import sample_min_periods


@pytest.fixture(scope="module")
def solve_setup(small_design, small_samples):
    """Topology, solver and a real training batch in solver units."""
    topology = ensure_compiled_system(small_design).topology
    analysis = sample_min_periods(small_design, constraint_samples=small_samples)
    period = analysis.target_period(0.0)
    spec = BufferSpec()
    step = spec.step_size(period)
    setup = np.floor(small_samples.setup_bounds(period) / step + 1e-9)
    hold = np.floor(small_samples.hold_bounds() / step + 1e-9)
    lower = np.full(topology.n_ffs, -float(spec.n_steps))
    upper = np.full(topology.n_ffs, float(spec.n_steps))
    solver = PerSampleSolver(topology)
    return solver, BatchProblem(setup, hold), lower, upper


def _solve(scheduler, batch, lower, upper, **kwargs):
    return run_pending(scheduler.prepare_solve(batch, lower, upper, **kwargs), scheduler.executor)


def _evaluate(scheduler, setup, hold, plan):
    return run_pending(
        scheduler.prepare_evaluate_plan(BatchProblem(setup, hold), plan, 0.0), scheduler.executor
    )


def _solution_key(solution):
    if solution is None:
        return None
    return (solution.feasible, tuple(sorted(solution.tunings.items())), solution.n_adjusted)


class TestSolveBatch:
    def test_clean_samples_stay_none(self, solve_setup):
        solver, batch, lower, upper = solve_setup
        scheduler = SampleScheduler(solver)
        solutions = _solve(scheduler, batch, lower, upper)
        violated = set(batch.violated_indices().tolist())
        assert len(solutions) == batch.n_samples
        for index, solution in enumerate(solutions):
            assert (solution is not None) == (index in violated)

    @pytest.mark.parametrize(
        "make_executor",
        [
            pytest.param(lambda: ProcessPoolExecutor(jobs=2), id="processes"),
        ],
    )
    def test_matches_serial_reference(self, solve_setup, make_executor):
        solver, batch, lower, upper = solve_setup
        reference = _solve(SampleScheduler(solver), batch, lower, upper)
        with make_executor() as executor:
            parallel = _solve(
                SampleScheduler(solver, executor=executor, chunk_size=5), batch, lower, upper
            )
        assert [_solution_key(s) for s in parallel] == [_solution_key(s) for s in reference]

    def test_chunk_size_does_not_change_results(self, solve_setup):
        solver, batch, lower, upper = solve_setup
        small = _solve(SampleScheduler(solver, chunk_size=1), batch, lower, upper)
        large = _solve(SampleScheduler(solver, chunk_size=1000), batch, lower, upper)
        assert [_solution_key(s) for s in small] == [_solution_key(s) for s in large]

    def test_stats_recorded(self, solve_setup):
        solver, batch, lower, upper = solve_setup
        stats = EngineStats()
        scheduler = SampleScheduler(solver, stats=stats)
        _solve(scheduler, batch, lower, upper, phase="unit")
        recorded = stats.phases["unit"]
        assert recorded.n_tasks == len(batch.violated_indices())
        assert recorded.n_dispatched == recorded.n_tasks
        assert recorded.seconds > 0.0


class TestCachePath:
    def test_identical_resolve_is_all_hits(self, solve_setup):
        solver, batch, lower, upper = solve_setup
        cache = ResultCache()
        scheduler = SampleScheduler(solver, cache=cache)
        first = _solve(scheduler, batch, lower, upper)
        before = cache.stats()
        second = _solve(scheduler, batch, lower, upper)
        after = cache.stats()
        assert [_solution_key(s) for s in second] == [_solution_key(s) for s in first]
        assert after["hits"] - before["hits"] == len(batch.violated_indices())

    def test_changed_candidates_miss(self, solve_setup):
        solver, batch, lower, upper = solve_setup
        cache = ResultCache()
        scheduler = SampleScheduler(solver, cache=cache)
        _solve(scheduler, batch, lower, upper)
        hits_before = cache.stats()["hits"]
        narrowed = np.ones(solver.topology.n_ffs, dtype=bool)
        narrowed[: solver.topology.n_ffs // 2] = False
        _solve(scheduler, batch, lower, upper, candidates=narrowed)
        assert cache.stats()["hits"] == hits_before

    def test_adopt_pre_seeds_the_pruning_resolve(self, solve_setup):
        """The pruning re-solve path: adopting untouched solutions under the
        reduced candidate mask turns them into cache hits, so only affected
        samples are dispatched."""
        solver, batch, lower, upper = solve_setup
        cache = ResultCache()
        stats = EngineStats()
        scheduler = SampleScheduler(solver, cache=cache, stats=stats)
        all_candidates = np.ones(solver.topology.n_ffs, dtype=bool)
        solutions = _solve(scheduler, batch, lower, upper, candidates=all_candidates)

        # Prune the buffers used in fewest samples (mimics Sec. III-A2).
        usage = np.zeros(solver.topology.n_ffs)
        for solution in solutions:
            if solution is not None:
                for ff in solution.tunings:
                    usage[ff] += 1
        used = np.where(usage > 0)[0]
        assert used.size > 0
        pruned_ff = int(used[np.argmin(usage[used])])
        kept = all_candidates.copy()
        kept[pruned_ff] = False

        reusable = {
            index: solution
            for index, solution in enumerate(solutions)
            if solution is not None and all(kept[ff] for ff in solution.tunings)
        }
        adopted = scheduler.adopt(batch, lower, upper, kept, None, reusable)
        assert adopted == len(reusable)

        resolved = _solve(scheduler, batch, lower, upper, candidates=kept, phase="resolve")
        resolve_stats = stats.phases["resolve"]
        assert resolve_stats.n_cache_hits == len(reusable)
        assert resolve_stats.n_dispatched == len(batch.violated_indices()) - len(reusable)
        # Adopted samples keep their exact previous solution object.
        for index, solution in reusable.items():
            assert resolved[index] is solution
        # Re-solved samples no longer touch the pruned buffer.
        for index, solution in enumerate(resolved):
            if solution is not None and index not in reusable:
                assert pruned_ff not in solution.tunings


class TestChunking:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert 1 <= default_chunk_size(10, 4) <= 64
        assert default_chunk_size(10**6, 1) == 64

    def test_make_chunks_partitions_in_order(self):
        setup = np.zeros((3, 10))
        hold = np.zeros((3, 10))
        chunks = make_chunks([7, 1, 5, 3], setup, hold, np.zeros(2), np.zeros(2), chunk_size=3)
        flattened = [int(i) for chunk in chunks for i in chunk.indices]
        assert flattened == [1, 3, 5, 7]
        assert [chunk.n_tasks for chunk in chunks] == [3, 1]
        assert chunks[0].setup_bounds.shape == (3, 3)

    def test_make_chunks_rejects_bad_size(self):
        with pytest.raises(ValueError):
            make_chunks([0], np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros(1), chunk_size=0)


@pytest.fixture(scope="module")
def eval_setup(solve_setup, small_design, small_samples):
    """A plan over every third flip-flop, its configurator, the target
    period and an evaluation batch with failing samples."""
    from repro.core.results import Buffer, BufferPlan
    from repro.tuning.configurator import PostSiliconConfigurator

    topology = solve_setup[0].topology
    period = ensure_compiled_system(small_design).nominal_min_period() * 1.01
    half = BufferSpec().max_range(period) / 2
    plan = BufferPlan(
        buffers=[
            Buffer(flip_flop=ff, lower=-half, upper=half, step=0.0)
            for ff in topology.ff_names[::3]
        ],
        target_period=period,
    )
    configurator = PostSiliconConfigurator(topology, plan, step=0.0)
    setup, hold = small_samples.setup_bounds(period), small_samples.hold_bounds()
    return plan, configurator, period, setup, hold


class TestEvaluationSweep:
    def test_engine_sweep_matches_direct_loop(self, solve_setup, eval_setup):
        plan, configurator, _, setup, hold = eval_setup
        direct = [
            configurator.configure_sample(setup[:, s], hold[:, s])[0]
            for s in range(setup.shape[1])
        ]
        with ProcessPoolExecutor(jobs=2) as executor:
            scheduler = SampleScheduler(solve_setup[0], executor=executor, chunk_size=7)
            passed, needed = _evaluate(scheduler, setup, hold, plan)
        assert passed.tolist() == direct
        assert needed.sum() > 0

    @pytest.mark.parametrize(
        "make_executor",
        [
            pytest.param(lambda: None, id="serial"),
            pytest.param(lambda: ProcessPoolExecutor(jobs=2), id="processes"),
        ],
    )
    def test_scheduler_evaluate_plan_matches_configurator(
        self, solve_setup, eval_setup, small_samples, make_executor
    ):
        """The configurator's sweep is the scheduler's, on the flow's
        warm solver or on its own solver over the same topology."""
        solver, _, _, _ = solve_setup
        plan, configurator, period, setup, hold = eval_setup
        executor = make_executor()
        try:
            scheduler = SampleScheduler(solver, executor=executor, chunk_size=7)
            passed, needed = _evaluate(scheduler, setup, hold, plan)
            evaluation = configurator.evaluate(small_samples, period, executor=executor)
        finally:
            if executor is not None:
                executor.close()
        assert passed.tolist() == evaluation.passed.tolist()
        assert needed.tolist() == evaluation.needed_tuning.tolist()

    def test_evaluate_plan_uses_warm_solver_pool(self, solve_setup, small_design, small_samples):
        """Solve phases and the evaluation sweep share one worker pool."""
        from repro.core.results import Buffer, BufferPlan

        solver, batch, lower, upper = solve_setup
        period = ensure_compiled_system(small_design).nominal_min_period() * 1.01
        plan = BufferPlan(
            buffers=[Buffer(flip_flop=solver.topology.ff_names[0], lower=-1.0, upper=1.0, step=0.0)],
            target_period=period,
        )
        with ProcessPoolExecutor(jobs=2) as executor:
            scheduler = SampleScheduler(solver, executor=executor, chunk_size=11)
            _solve(scheduler, batch, lower, upper)
            key_after_solve = executor.warm_key
            setup, hold = small_samples.setup_bounds(period), small_samples.hold_bounds()
            _evaluate(scheduler, setup, hold, plan)
            assert executor.warm_key == key_after_solve is not None


class TestWarmSharedKeys:
    def test_shared_key_is_content_derived(self, solve_setup):
        solver, _, _, _ = solve_setup
        a = SampleScheduler(solver)
        b = SampleScheduler(solver)
        assert a.shared_key == b.shared_key
        assert a.shared_key == f"solver-{solver.state_fingerprint()}"

    def test_equivalent_solver_reuses_pool(self, solve_setup):
        """Two schedulers over equal solver state share the warm pool."""
        from repro.core.sample_solver import PerSampleSolver

        solver, batch, lower, upper = solve_setup
        twin = PerSampleSolver(solver.topology)
        assert twin.state_fingerprint() == solver.state_fingerprint()
        with ProcessPoolExecutor(jobs=2) as executor:
            _solve(SampleScheduler(solver, executor=executor), batch, lower, upper)
            first_key = executor.warm_key
            _solve(SampleScheduler(twin, executor=executor), batch, lower, upper)
            assert executor.warm_key == first_key is not None

    def test_different_settings_change_key(self, solve_setup):
        from repro.core.sample_solver import PerSampleSolver

        solver, _, _, _ = solve_setup
        other = PerSampleSolver(solver.topology, pool_hops=2)
        assert other.state_fingerprint() != solver.state_fingerprint()


class TestCacheSize:
    def test_cache_size_builds_bounded_cache(self, small_design):
        config = FlowConfig(
            n_samples=80, n_eval_samples=150, seed=9, target_sigma=1.0, cache_size=3
        )
        flow = BufferInsertionFlow(small_design, config)
        flow.run()
        cache = flow.last_scheduler.cache
        assert cache is not None
        assert cache.max_entries == 3
        assert len(cache) <= 3

    def test_bounded_cache_still_correct(self, solve_setup):
        """Eviction may cost re-solves but can never change results."""
        solver, batch, lower, upper = solve_setup
        unbounded = _solve(SampleScheduler(solver, cache=ResultCache()), batch, lower, upper)
        bounded_cache = ResultCache(max_entries=2)
        bounded = _solve(SampleScheduler(solver, cache=bounded_cache), batch, lower, upper)
        assert len(bounded_cache) <= 2
        assert [_solution_key(s) for s in bounded] == [_solution_key(s) for s in unbounded]


class _InlinePublishingExecutor(SerialExecutor):
    """Runs chunks inline, but ships bound matrices through shared memory
    the way a process pool does (``keyed_state``)."""

    keyed_state = True


class TestBoundFingerprints:
    """Bound matrices are hashed only to name shared-memory segments."""

    def test_serial_evaluation_hashes_no_bound_matrix(
        self, solve_setup, eval_setup, small_samples, monkeypatch
    ):
        from repro.engine import cache as cache_module
        from repro.engine import scheduler as scheduler_module

        plan, configurator, period, setup, hold = eval_setup
        hashed = []
        original = cache_module.fingerprint_array

        def recording(array):
            hashed.append(array)
            return original(array)

        # fingerprint_arrays hashes each array through the cache module's
        # global, so this sees every array either function is given.
        monkeypatch.setattr(cache_module, "fingerprint_array", recording)
        monkeypatch.setattr(scheduler_module, "fingerprint_array", recording)
        scheduler = SampleScheduler(solve_setup[0], executor=SerialExecutor(), chunk_size=7)
        passed, needed = _evaluate(scheduler, setup, hold, plan)
        swept = configurator.evaluate(small_samples, period).passed
        assert needed.any()  # chunks were dispatched
        assert swept.tolist() == passed.tolist()
        assert hashed  # the plan key is still a content hash
        assert not any(array.shape == setup.shape for array in hashed if array is not None)

    @pytest.mark.skipif(not shm_enabled(), reason="shared memory unavailable")
    def test_published_segments_keep_content_keys(
        self, solve_setup, eval_setup, small_samples, monkeypatch
    ):
        from repro.engine import scheduler as scheduler_module
        from repro.engine import shm as shm_module

        solver, batch, lower, upper = solve_setup
        plan, configurator, period, setup, hold = eval_setup
        expected_passed, _ = _evaluate(SampleScheduler(solver), setup, hold, plan)

        monkeypatch.setattr(shm_module, "SHM_MIN_BYTES", 1)  # force sharing
        store = SharedMatrixStore()
        keys = []
        checkout = store.checkout

        def recording(key, array):
            keys.append(key)
            return checkout(key, array)

        store.checkout = recording
        monkeypatch.setattr(scheduler_module, "get_shared_store", lambda: store)
        executor = _InlinePublishingExecutor()
        try:
            scheduler = SampleScheduler(solver, executor=executor, chunk_size=7)
            _solve(scheduler, batch, lower, upper)
            passed, _ = _evaluate(scheduler, setup, hold, plan)
            swept = configurator.evaluate(small_samples, period, executor=executor).passed
        finally:
            store.release_all()
        batch_fp = fingerprint_arrays(batch.setup_bounds, batch.hold_bounds)
        eval_fp = fingerprint_arrays(setup, hold)
        assert keys == [f"{batch_fp}:setup", f"{batch_fp}:hold"] + [
            f"{eval_fp}:setup",
            f"{eval_fp}:hold",
        ] * 2
        assert passed.tolist() == expected_passed.tolist()
        assert swept.tolist() == expected_passed.tolist()
