"""Batched sample scheduling on top of the executors.

:class:`SampleScheduler` is the piece the flow talks to: given one
Monte-Carlo :class:`~repro.engine.batch.BatchProblem` and the current
solve settings (tuning windows, candidate mask, concentration targets)
it

1. skips the samples with no violated constraint (vectorised),
2. consults the keyed :class:`~repro.engine.cache.ResultCache`,
3. chunks the remaining samples and dispatches them through the
   configured :class:`~repro.engine.executor.Executor` — the per-sample
   solver (with its constraint topology) is shipped to the workers once
   and kept warm across chunks and batches,
4. merges the results back **by sample index**, which makes the
   reduction order — and therefore the flow output — identical across
   all executors.

:meth:`SampleScheduler.evaluate_plan` applies the same machinery to the
post-silicon evaluation sweep (one feasibility check per fresh sample)
**on the warm solver state**: the worker pool that solved the training
samples also evaluates the finished plan, with only the small
``(plan, step)`` pair and the per-chunk sample-matrix slices crossing
the process boundary.  Scheduler shared keys are *content-derived*
(solver fingerprint), so consecutive flow runs over the same compiled
constraint system reuse each other's warm pools.
:func:`run_yield_evaluation` is the standalone variant used outside a
scheduler (yield estimator, tests).
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import BatchProblem, ChunkPayload, default_chunk_size, make_chunks
from repro.engine.cache import CacheKey, ResultCache, fingerprint_array, fingerprint_arrays
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.gang import PendingPhase, record_dispatch_metrics, run_pending
from repro.engine.progress import PHASE_YIELD_EVAL, EngineStats, NullProgress, ProgressReporter
from repro.engine.shm import get_shared_store, use_shm_for
from repro.obs.metrics import get_registry
from repro.obs.trace import current_context
from repro.obs.trace import span as trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine is a leaf)
    from repro.core.sample_solver import PerSampleSolver, SampleSolution

_TOL = 1e-9

#: Monotonic source of unique worker-state keys (one per warm shared object).
_SHARED_KEY_COUNTER = itertools.count()


def _next_shared_key(prefix: str) -> str:
    return f"{prefix}-{next(_SHARED_KEY_COUNTER)}"


def _label_chunks(chunks: List[ChunkPayload], phase: str) -> None:
    """Stamp each chunk with its phase and the ambient trace context.

    The label rides the payload across the process boundary, so chunk
    spans emitted inside pool workers still carry their campaign cell
    and phase.  Observability only — never read by chunk functions.
    """
    label: Dict[str, Any] = current_context()
    label["phase"] = phase
    for chunk in chunks:
        chunk.label = label


def _share_bounds(executor, setup_bounds, hold_bounds, fingerprint: Optional[str] = None):
    """Publish the phase's bound matrices to shared memory when worth it.

    Returns ``(setup_ref, hold_ref, release)``: the refs are ``None``
    (and ``release`` a no-op) when inline pickling is the better
    transport (serial executor, small matrices, ``REPRO_NO_SHM``).
    ``release`` must be called exactly once, after the phase's result
    stream has fully drained — it drops the store references so the
    segments can retire; calling it earlier could unlink a segment with
    chunks still in flight.

    The segments are keyed by ``fingerprint``, the content fingerprint
    of both matrices.  When it is not given it is computed here, only
    once the matrices are known to be published, so a phase that ships
    them inline never hashes them.
    """
    if not use_shm_for(executor, setup_bounds, hold_bounds):
        return None, None, lambda: None
    if fingerprint is None:
        fingerprint = fingerprint_arrays(setup_bounds, hold_bounds)
    store = get_shared_store()
    setup_key, hold_key = f"{fingerprint}:setup", f"{fingerprint}:hold"
    setup_ref = store.checkout(setup_key, setup_bounds)
    hold_ref = store.checkout(hold_key, hold_bounds)
    released = []

    def release() -> None:
        if not released:
            released.append(True)
            store.checkin(setup_key)
            store.checkin(hold_key)

    return setup_ref, hold_ref, release


# ----------------------------------------------------------------------
# Worker-side chunk functions (module level: picklable by reference)
# ----------------------------------------------------------------------
def solve_chunk(solver: "PerSampleSolver", payload: ChunkPayload) -> List[Tuple[int, "SampleSolution"]]:
    """Solve every sample of one chunk with the warm shared solver.

    Used by all executors; in the process pool ``solver`` is the
    worker-resident copy installed by the pool initializer, so only the
    payload crosses the process boundary per chunk.
    """
    from repro.core.sample_solver import SampleProblem  # deferred: keeps the engine a leaf

    payload.resolve()
    with trace_span("engine.chunk", n_samples=payload.n_tasks, **(payload.label or {})):
        solve = solver.solve_with_milp if solver.backend == "milp" else solver.solve
        results: List[Tuple[int, SampleSolution]] = []
        for position, index in enumerate(payload.indices):
            problem = SampleProblem(
                payload.setup_bounds[:, position],
                payload.hold_bounds[:, position],
                payload.lower,
                payload.upper,
            )
            solution = solve(problem, candidates=payload.candidates, targets=payload.targets)
            results.append((int(index), solution))
        return results


def configure_chunk(configurator: Any, payload: ChunkPayload) -> List[Tuple[int, bool]]:
    """Feasibility-check every sample of one evaluation chunk.

    ``configurator`` is any object with the
    ``configure_sample(setup_bound, hold_bound) -> (ok, assignment)``
    contract of :class:`repro.tuning.configurator.PostSiliconConfigurator`.
    """
    payload.resolve()
    with trace_span("engine.chunk", n_samples=payload.n_tasks, **(payload.label or {})):
        results: List[Tuple[int, bool]] = []
        for position, index in enumerate(payload.indices):
            ok, _ = configurator.configure_sample(
                payload.setup_bounds[:, position], payload.hold_bounds[:, position]
            )
            results.append((int(index), bool(ok)))
        return results


def evaluate_plan_chunk(solver: "PerSampleSolver", payload: ChunkPayload) -> List[Tuple[int, bool]]:
    """Yield-evaluation chunk against the *warm solver state*.

    Instead of shipping a configurator object (which carries the whole
    compiled topology) to the workers, the chunk carries only the small
    ``(plan, step)`` pair in :attr:`ChunkPayload.extra`; the worker
    builds the configurator from the solver's resident topology and
    memoises it under :attr:`ChunkPayload.extra_key`, so one warm worker
    pool serves every phase of the flow — solves and evaluation alike.
    """
    from repro.tuning.configurator import PostSiliconConfigurator  # deferred: engine is a leaf

    plan, step = payload.extra
    memo = getattr(solver, "_configurator_memo", None)
    if memo is None:
        memo = {}
        solver._configurator_memo = memo
    configurator = memo.get(payload.extra_key)
    if configurator is None:
        configurator = PostSiliconConfigurator(solver.topology, plan, step=step)
        if payload.extra_key is not None:
            memo.clear()  # one plan is live at a time; drop stale entries
            memo[payload.extra_key] = configurator
    return configure_chunk(configurator, payload)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class SampleScheduler:
    """Dispatch per-sample solves over an executor with caching.

    Parameters
    ----------
    solver:
        The per-sample solver (carries the constraint topology; shipped
        to process-pool workers once and reused across batches).
    executor:
        Execution backend (default :class:`SerialExecutor`).
    cache:
        Optional :class:`ResultCache`; when given, solved samples are
        stored under content-fingerprint keys and re-solves with
        unchanged inputs become hits.
    stats / progress:
        Optional instrumentation sinks.
    chunk_size:
        Samples per executor round trip (default: balanced heuristic).
    cache_size:
        When ``cache`` is not given, build an LRU-bounded
        :class:`ResultCache` with this many entries (``None``: no cache
        unless one is passed in).
    shared_key:
        Override for the warm worker-state key.  By default the key is
        *content-derived* from the solver
        (:meth:`~repro.core.sample_solver.PerSampleSolver.state_fingerprint`),
        so consecutive schedulers over the same compiled system reuse an
        executor's warm worker pool instead of re-shipping state.
    gang_width:
        Number of peer schedulers expected to dispatch alongside this
        one in gang mode (see :mod:`repro.engine.gang`).  Only chunk
        *sizing* is affected: with N peers filling the pool, each peer
        needs ~1/N of the usual chunk count, so chunks grow and round
        trips shrink.  Chunk layout never changes results.
    """

    def __init__(
        self,
        solver: PerSampleSolver,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
        stats: Optional[EngineStats] = None,
        progress: Optional[ProgressReporter] = None,
        chunk_size: Optional[int] = None,
        cache_size: Optional[int] = None,
        shared_key: Optional[str] = None,
        gang_width: int = 1,
    ) -> None:
        self.solver = solver
        self.executor = executor if executor is not None else SerialExecutor()
        if cache is None and cache_size is not None:
            cache = ResultCache(max_entries=cache_size)
        self.cache = cache
        self.stats = stats if stats is not None else EngineStats()
        self.progress = progress if progress is not None else NullProgress()
        self.chunk_size = chunk_size
        self.gang_width = max(1, int(gang_width))
        if shared_key is None:
            fingerprint = getattr(solver, "state_fingerprint", None)
            shared_key = (
                f"solver-{fingerprint()}" if callable(fingerprint) else _next_shared_key("solver")
            )
        self._shared_key = shared_key

    @property
    def shared_key(self) -> str:
        """The warm worker-state key this scheduler dispatches under."""
        return self._shared_key

    def _chunk_size_for(self, n_tasks: int) -> int:
        """Effective chunk size: explicit override, or the balanced
        heuristic over this scheduler's share of the worker pool."""
        if self.chunk_size:
            return self.chunk_size
        jobs = max(1, -(-self.executor.jobs // self.gang_width))
        return default_chunk_size(n_tasks, jobs)

    # ------------------------------------------------------------------
    def _keys_for(
        self,
        batch: BatchProblem,
        lower: np.ndarray,
        upper: np.ndarray,
        candidates: Optional[np.ndarray],
        targets: Optional[np.ndarray],
        indices: Sequence[int],
    ) -> List[CacheKey]:
        batch_fp = batch.fingerprint()
        bounds_fp = fingerprint_arrays(lower, upper)
        candidates_fp = fingerprint_array(candidates)
        targets_fp = fingerprint_array(targets)
        return [
            CacheKey(batch_fp, bounds_fp, candidates_fp, targets_fp, int(i)) for i in indices
        ]

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        batch: BatchProblem,
        lower: np.ndarray,
        upper: np.ndarray,
        candidates: Optional[np.ndarray] = None,
        targets: Optional[np.ndarray] = None,
        phase: str = "solve",
    ) -> List[Optional[SampleSolution]]:
        """Solve every violated sample of the batch.

        Returns one entry per sample, ``None`` for samples that meet
        timing without any adjustment (mirroring the original serial
        loop).  Results are merged by sample index, so the output is
        independent of the executor and chunk layout.
        """
        return run_pending(
            self.prepare_solve(batch, lower, upper, candidates, targets, phase=phase),
            self.executor,
        )

    def prepare_solve(
        self,
        batch: BatchProblem,
        lower: np.ndarray,
        upper: np.ndarray,
        candidates: Optional[np.ndarray] = None,
        targets: Optional[np.ndarray] = None,
        phase: str = "solve",
    ) -> PendingPhase:
        """Prepare :meth:`solve_batch` as a dispatchable pending phase.

        Everything up to chunk submission happens here (clean-sample
        skipping, cache lookups, chunking, labelling); the returned
        pending's ``finish`` drains the chunk stream, merges by sample
        index, feeds the cache and records stats — identical to the
        blocking method, which is implemented on top of this.
        """
        start = time.perf_counter()
        registry = get_registry()
        n_samples = batch.n_samples
        solutions: List[Optional[SampleSolution]] = [None] * n_samples
        needed = [int(i) for i in batch.violated_indices()]
        self.progress.start(phase, len(needed))

        # Cache lookups first; only misses are dispatched.
        to_solve: List[int] = needed
        key_of: Dict[int, CacheKey] = {}
        n_hits = 0
        if self.cache is not None and needed:
            keys = self._keys_for(batch, lower, upper, candidates, targets, needed)
            key_of = dict(zip(needed, keys, strict=True))
            to_solve = []
            for index, key in zip(needed, keys, strict=True):
                hit = self.cache.get(key)
                if hit is not None:
                    solutions[index] = hit
                    n_hits += 1
                else:
                    to_solve.append(index)
        registry.counter("engine.cache.hits").inc(n_hits)
        registry.counter("engine.cache.misses").inc(len(to_solve))

        setup_ref = hold_ref = None
        release_shared = lambda: None
        if to_solve:
            setup_ref, hold_ref, release_shared = _share_bounds(
                self.executor, batch.setup_bounds, batch.hold_bounds, batch.fingerprint()
            )
        chunks = make_chunks(
            to_solve,
            batch.setup_bounds,
            batch.hold_bounds,
            lower,
            upper,
            candidates=candidates,
            targets=targets,
            chunk_size=self._chunk_size_for(len(to_solve)),
            setup_ref=setup_ref,
            hold_ref=hold_ref,
        )
        _label_chunks(chunks, phase)

        def finish(stream):
            # Backdated to `start`: the span must cover the preparation
            # (cache lookups, shared-memory publish, chunking) exactly
            # like the stats seconds recorded below do.
            with trace_span("engine.phase", start_perf=start, phase=phase) as span_attrs:
                latency = registry.histogram("engine.chunk.latency_seconds")
                done = n_hits
                last_arrival = time.perf_counter()
                try:
                    for chunk_result in stream:
                        arrival = time.perf_counter()
                        latency.observe(arrival - last_arrival)
                        last_arrival = arrival
                        for index, solution in chunk_result:
                            solutions[index] = solution
                            done += 1
                        self.progress.advance(phase, done, len(needed))
                finally:
                    release_shared()

                if self.cache is not None and to_solve:
                    for index in to_solve:
                        self.cache.put(key_of[index], solutions[index])

                seconds = time.perf_counter() - start
                self.progress.finish(phase, len(needed), seconds)
                self.stats.record(
                    phase,
                    n_tasks=len(needed),
                    n_dispatched=len(to_solve),
                    n_cache_hits=n_hits,
                    n_chunks=len(chunks),
                    seconds=seconds,
                )
                span_attrs.update(
                    n_tasks=len(needed),
                    n_dispatched=len(to_solve),
                    n_cache_hits=n_hits,
                    n_chunks=len(chunks),
                )
            return solutions

        return PendingPhase(
            solve_chunk,
            chunks,
            self.solver,
            self._shared_key,
            finish,
            phase=phase,
            context=current_context(),
        )

    # ------------------------------------------------------------------
    def evaluate_plan(
        self,
        setup_bounds: np.ndarray,
        hold_bounds: np.ndarray,
        plan: Any,
        step: float,
        phase: str = PHASE_YIELD_EVAL,
        tol: float = _TOL,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the post-silicon yield sweep on the warm solver state.

        Samples passing at the neutral buffer setting are filtered out
        vectorised; the rest are chunked with per-chunk sample-matrix
        slices plus the (small) ``(plan, step)`` pair, and dispatched
        under the scheduler's existing shared key — the worker pool
        warmed for the solve phases serves the evaluation too, no state
        is re-shipped.

        Returns ``(passed, needed_tuning)`` boolean per-sample arrays.
        """
        return run_pending(
            self.prepare_evaluate_plan(
                setup_bounds, hold_bounds, plan, step, phase=phase, tol=tol
            ),
            self.executor,
        )

    def prepare_evaluate_plan(
        self,
        setup_bounds: np.ndarray,
        hold_bounds: np.ndarray,
        plan: Any,
        step: float,
        phase: str = PHASE_YIELD_EVAL,
        tol: float = _TOL,
    ) -> PendingPhase:
        """Prepare :meth:`evaluate_plan` as a dispatchable pending phase.

        The pending dispatches under the scheduler's solver key, so a
        gang of cells sharing one compiled system evaluates *any number
        of plans* (flow plans, baseline plans) on one warm worker pool —
        only the small ``(plan, step)`` pairs cross the process boundary.
        """
        start = time.perf_counter()
        registry = get_registry()
        clean = np.all(setup_bounds >= -tol, axis=0) & np.all(hold_bounds >= -tol, axis=0)
        passed = clean.copy()
        needed = ~clean
        indices = [int(i) for i in np.where(needed)[0]]
        self.progress.start(phase, len(indices))

        empty = np.zeros(0)
        plan_key = fingerprint_arrays(
            np.frombuffer(repr(plan).encode("utf-8"), dtype=np.uint8),
            np.asarray([float(step)]),
        )
        setup_ref = hold_ref = None
        release_shared = lambda: None
        if indices:
            setup_ref, hold_ref, release_shared = _share_bounds(
                self.executor, setup_bounds, hold_bounds
            )
        chunks = make_chunks(
            indices,
            setup_bounds,
            hold_bounds,
            empty,
            empty,
            chunk_size=self._chunk_size_for(len(indices)),
            extra=(plan, float(step)),
            extra_key=plan_key,
            setup_ref=setup_ref,
            hold_ref=hold_ref,
        )
        _label_chunks(chunks, phase)

        def finish(stream):
            # Backdated like prepare_solve's: span dur == stats seconds.
            with trace_span("engine.phase", start_perf=start, phase=phase) as span_attrs:
                latency = registry.histogram("engine.chunk.latency_seconds")
                done = 0
                last_arrival = time.perf_counter()
                try:
                    for chunk_result in stream:
                        arrival = time.perf_counter()
                        latency.observe(arrival - last_arrival)
                        last_arrival = arrival
                        for index, ok in chunk_result:
                            passed[index] = ok
                            done += 1
                        self.progress.advance(phase, done, len(indices))
                finally:
                    release_shared()

                seconds = time.perf_counter() - start
                self.progress.finish(phase, len(indices), seconds)
                self.stats.record(
                    phase,
                    n_tasks=len(indices),
                    n_dispatched=len(indices),
                    n_chunks=len(chunks),
                    seconds=seconds,
                )
                span_attrs.update(
                    n_tasks=len(indices), n_dispatched=len(indices), n_chunks=len(chunks)
                )
            return passed, needed

        return PendingPhase(
            evaluate_plan_chunk,
            chunks,
            self.solver,
            self._shared_key,
            finish,
            phase=phase,
            context=current_context(),
        )

    # ------------------------------------------------------------------
    def adopt(
        self,
        batch: BatchProblem,
        lower: np.ndarray,
        upper: np.ndarray,
        candidates: Optional[np.ndarray],
        targets: Optional[np.ndarray],
        solutions: Dict[int, SampleSolution],
    ) -> int:
        """Pre-seed the cache with solutions known to stay valid.

        The pruning step shrinks the candidate mask; a sample whose
        previous solution never touched a pruned buffer solves to the
        same result under the new mask, so the flow *adopts* it under the
        new cache key and the subsequent :meth:`solve_batch` only
        dispatches the genuinely affected samples.  Returns the number of
        adopted entries (0 when no cache is configured).
        """
        if self.cache is None or not solutions:
            return 0
        indices = sorted(solutions)
        keys = self._keys_for(batch, lower, upper, candidates, targets, indices)
        for index, key in zip(indices, keys, strict=True):
            self.cache.put(key, solutions[index])
        return len(indices)


# ----------------------------------------------------------------------
# Evaluation sweep
# ----------------------------------------------------------------------
def run_yield_evaluation(
    configurator: Any,
    setup_bounds: np.ndarray,
    hold_bounds: np.ndarray,
    executor: Optional[Executor] = None,
    chunk_size: Optional[int] = None,
    stats: Optional[EngineStats] = None,
    progress: Optional[ProgressReporter] = None,
    phase: str = PHASE_YIELD_EVAL,
    tol: float = _TOL,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the post-silicon feasibility sweep over a fresh sample batch.

    Parameters
    ----------
    configurator:
        Object with the ``configure_sample`` contract (see
        :func:`configure_chunk`).
    setup_bounds / hold_bounds:
        Arrays ``(n_edges, n_samples)`` at the target period, time units.

    Returns
    -------
    (passed, needed_tuning)
        Boolean per-sample arrays with the semantics of
        :class:`repro.tuning.configurator.TuningEvaluation`.
    """
    with trace_span("engine.phase", phase=phase) as span_attrs:
        start = time.perf_counter()
        executor = executor if executor is not None else SerialExecutor()
        progress = progress if progress is not None else NullProgress()
        clean = np.all(setup_bounds >= -tol, axis=0) & np.all(hold_bounds >= -tol, axis=0)
        passed = clean.copy()
        needed = ~clean
        indices = [int(i) for i in np.where(needed)[0]]
        progress.start(phase, len(indices))

        n_ffs_dummy = np.zeros(0)
        size = chunk_size or default_chunk_size(len(indices), executor.jobs)
        setup_ref = hold_ref = None
        release_shared = lambda: None
        if indices:
            setup_ref, hold_ref, release_shared = _share_bounds(
                executor, setup_bounds, hold_bounds
            )
        chunks = make_chunks(
            indices,
            setup_bounds,
            hold_bounds,
            n_ffs_dummy,
            n_ffs_dummy,
            chunk_size=size,
            setup_ref=setup_ref,
            hold_ref=hold_ref,
        )
        shared_key = getattr(configurator, "_engine_shared_key", None)
        if shared_key is None:
            shared_key = _next_shared_key("configurator")
            try:
                configurator._engine_shared_key = shared_key
            except AttributeError:  # pragma: no cover - exotic configurator types
                pass
        _label_chunks(chunks, phase)
        record_dispatch_metrics(executor, shared_key, chunks)
        done = 0
        try:
            for chunk_result in executor.map_chunks(
                configure_chunk, chunks, shared=configurator, shared_key=shared_key
            ):
                for index, ok in chunk_result:
                    passed[index] = ok
                    done += 1
                progress.advance(phase, done, len(indices))
        finally:
            release_shared()

        seconds = time.perf_counter() - start
        progress.finish(phase, len(indices), seconds)
        if stats is not None:
            stats.record(
                phase,
                n_tasks=len(indices),
                n_dispatched=len(indices),
                n_chunks=len(chunks),
                seconds=seconds,
            )
        span_attrs.update(
            n_tasks=len(indices), n_dispatched=len(indices), n_chunks=len(chunks)
        )
        return passed, needed
