"""Shared-memory shipping of batch bound matrices.

Covers the parent-side store (fingerprint dedup, refcounting, retirement
buffer), the worker-side attach/materialise path (byte-identity with the
inline slices), the gating rules, and end-to-end equality of a
process-pool solve with shm against the serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    ProcessPoolExecutor,
    SerialExecutor,
    SharedColumns,
    SharedMatrixStore,
    make_chunks,
    shm_enabled,
    use_shm_for,
)
from repro.engine import shm as shm_module

pytestmark = pytest.mark.skipif(not shm_enabled(), reason="shared memory unavailable")


@pytest.fixture
def store():
    store = SharedMatrixStore(retire_capacity=2)
    yield store
    store.release_all()


def matrix(seed: int = 0, shape=(6, 50)) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


class TestSharedMatrixStore:
    def test_round_trip_is_byte_identical(self, store):
        data = matrix()
        ref = store.checkout("m", data)
        attached = ref.array()
        np.testing.assert_array_equal(attached, data)
        assert not attached.flags.writeable

    def test_checkout_same_key_reuses_segment(self, store):
        data = matrix()
        first = store.checkout("m", data)
        second = store.checkout("m", data)
        assert first.name == second.name
        assert store.n_live == 1

    def test_segment_survives_until_last_checkin(self, store):
        data = matrix()
        ref = store.checkout("m", data)
        store.checkout("m", data)
        store.checkin("m")
        # One reference still out: the segment must stay mapped.
        np.testing.assert_array_equal(ref.array(), data)
        store.checkin("m")
        # Now retired (capacity 2) but still resident for cheap reuse.
        assert store.n_live == 1
        assert store.checkout("m", data).name == ref.name

    def test_retirement_buffer_unlinks_oldest(self, store):
        for i in range(4):
            store.checkout(f"m{i}", matrix(i))
            store.checkin(f"m{i}")
        # capacity 2: m0 and m1 were unlinked, m2/m3 retired-resident.
        assert store.n_live == 2

    def test_release_all_unlinks_everything(self, store):
        ref = store.checkout("m", matrix())
        store.release_all()
        assert store.n_live == 0
        import multiprocessing.shared_memory as shm

        with pytest.raises(FileNotFoundError):
            shm.SharedMemory(name=ref.name)


class TestSharedColumns:
    def test_resolve_materialises_identical_slices(self, store):
        setup = matrix(1)
        hold = matrix(2)
        setup_ref = store.checkout("s", setup)
        hold_ref = store.checkout("h", hold)
        indices = [3, 7, 11, 20]
        shared_chunks = make_chunks(
            indices, setup, hold, np.zeros(0), np.zeros(0), chunk_size=3,
            setup_ref=setup_ref, hold_ref=hold_ref,
        )
        inline_chunks = make_chunks(
            indices, setup, hold, np.zeros(0), np.zeros(0), chunk_size=3
        )
        for shared, inline in zip(shared_chunks, inline_chunks, strict=True):
            assert isinstance(shared.setup_bounds, SharedColumns)
            shared.resolve()
            np.testing.assert_array_equal(shared.setup_bounds, inline.setup_bounds)
            np.testing.assert_array_equal(shared.hold_bounds, inline.hold_bounds)

    def test_resolve_is_idempotent_and_inline_passthrough(self, store):
        setup = matrix(1)
        hold = matrix(2)
        [chunk] = make_chunks([0, 1], setup, hold, np.zeros(0), np.zeros(0))
        resolved = chunk.resolve()
        assert resolved is chunk
        assert resolved.setup_bounds is chunk.setup_bounds  # untouched array

        ref = store.checkout("s", setup)
        [shared_chunk] = make_chunks(
            [0, 1], setup, hold, np.zeros(0), np.zeros(0),
            setup_ref=ref, hold_ref=store.checkout("h", hold),
        )
        shared_chunk.resolve()
        first = shared_chunk.setup_bounds
        shared_chunk.resolve()
        assert shared_chunk.setup_bounds is first


class TestGating:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not shm_enabled()
        assert not use_shm_for(ProcessPoolExecutor(jobs=1), matrix())

    def test_stateless_executors_never_share(self):
        big = np.zeros((1024, 1024))
        assert not use_shm_for(SerialExecutor(), big)

    def test_small_matrices_stay_inline(self):
        executor = ProcessPoolExecutor(jobs=1)
        small = np.zeros((4, 4))
        assert not use_shm_for(executor, small)
        big = np.zeros(shm_module.SHM_MIN_BYTES // 8 + 1)
        assert use_shm_for(executor, big)


class TestEndToEnd:
    def test_process_pool_solve_with_shm_matches_serial(self, monkeypatch):
        """A real solve dispatched over processes with forced-on shm must
        be bit-identical to the serial (inline) reference."""
        from repro.circuit.suite import build_suite_circuit
        from repro.core.compiled import ensure_compiled_system
        from repro.core.sample_solver import PerSampleSolver
        from repro.engine import BatchProblem, SampleScheduler, run_pending
        from repro.variation.sampling import MonteCarloSampler

        design = build_suite_circuit("s9234", scale=0.05, seed=3)
        compiled = ensure_compiled_system(design)
        sampler = MonteCarloSampler(design.variation_model, rng=11)
        samples = compiled.sample(sampler.sample(24), sampler=sampler)
        period = compiled.nominal_min_period() * 0.98
        setup = samples.setup_bounds(period)
        hold = samples.hold_bounds()
        batch = BatchProblem(setup, hold)
        lower = np.full(compiled.n_ffs, -0.5)
        upper = np.full(compiled.n_ffs, 0.5)

        solver = PerSampleSolver(compiled.topology)
        reference = run_pending(
            SampleScheduler(solver).prepare_solve(batch, lower, upper), SerialExecutor()
        )

        monkeypatch.setattr(shm_module, "SHM_MIN_BYTES", 1)  # force sharing
        with ProcessPoolExecutor(jobs=2) as executor:
            assert use_shm_for(executor, setup, hold)
            shared = run_pending(
                SampleScheduler(solver, executor).prepare_solve(batch, lower, upper), executor
            )
        assert len(shared) == len(reference)
        for ours, theirs in zip(shared, reference, strict=True):
            if theirs is None:
                assert ours is None
                continue
            assert ours.feasible == theirs.feasible
            assert ours.tunings == theirs.tunings


class TestFailedPhaseReleasesPeers:
    """A phase that raises must not strand its peers' segments: a
    long-lived worker would otherwise keep one per failed job."""

    @pytest.fixture
    def phases(self, small_design, small_samples, monkeypatch):
        """A store, a 2-worker pool, and a factory of evaluation phases
        for a good plan and for one naming an unknown flip-flop."""
        from repro.core.compiled import ensure_compiled_system
        from repro.core.results import Buffer, BufferPlan
        from repro.core.sample_solver import PerSampleSolver
        from repro.engine import BatchProblem, SampleScheduler
        from repro.engine import scheduler as scheduler_module

        monkeypatch.setattr(shm_module, "SHM_MIN_BYTES", 1)  # force sharing
        shared_store = SharedMatrixStore()
        monkeypatch.setattr(scheduler_module, "get_shared_store", lambda: shared_store)
        compiled = ensure_compiled_system(small_design)
        period = compiled.nominal_min_period() * 1.01
        batch = BatchProblem(small_samples.setup_bounds(period), small_samples.hold_bounds())
        plans = {
            name: BufferPlan(
                buffers=[Buffer(flip_flop=ff, lower=-1.0, upper=1.0, step=0.0)],
                target_period=period,
            )
            for name, ff in (("good", compiled.topology.ff_names[0]), ("bad", "no_such_ff"))
        }
        executor = ProcessPoolExecutor(jobs=2)
        scheduler = SampleScheduler(PerSampleSolver(compiled.topology), executor)
        try:
            yield shared_store, executor, lambda name: scheduler.prepare_evaluate_plan(
                batch, plans[name], 0.0
            )
        finally:
            executor.close()
            shared_store.release_all()

    @staticmethod
    def refcounts(shared_store):
        return [entry[2] for entry in shared_store._entries.values()]

    def test_gang_dispatch_error_finishes_the_other_phases(self, phases):
        from repro.engine import gang_dispatch

        shared_store, executor, prepare = phases
        pendings = [prepare("bad"), prepare("good")]
        assert pendings[0].n_chunks > 0
        with pytest.raises(KeyError, match="no_such_ff"):
            gang_dispatch(pendings, executor)
        assert self.refcounts(shared_store)  # the batch was published
        assert max(self.refcounts(shared_store)) == 0

    def test_pipelined_error_finishes_the_other_phases(self, phases):
        from repro.engine import drive_pending_generators

        shared_store, executor, prepare = phases

        def cell(name):
            yield prepare(name)
            yield prepare("good")

        with pytest.raises(KeyError, match="no_such_ff"):
            drive_pending_generators([cell("bad"), cell("good")], executor)
        assert self.refcounts(shared_store)
        assert max(self.refcounts(shared_store)) == 0
