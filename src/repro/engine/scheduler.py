"""Batched sample scheduling on top of the executors.

:class:`SampleScheduler` is the piece the flow talks to.  It prepares two
kinds of phase, each as a :class:`~repro.engine.gang.PendingPhase` that
:func:`~repro.engine.gang.run_pending` (or a gang) dispatches:

* :meth:`SampleScheduler.prepare_solve` solves the violated samples of
  one Monte-Carlo :class:`~repro.engine.batch.BatchProblem` under the
  current solve settings (tuning windows, candidate mask, concentration
  targets).  It skips the samples with no violated constraint
  (vectorised) and consults the keyed
  :class:`~repro.engine.cache.ResultCache` first.
* :meth:`SampleScheduler.prepare_evaluate_plan` is the post-silicon
  evaluation sweep, one feasibility check of a finished plan per fresh
  chip.  It is the only evaluation sweep: the flow, the campaign
  baselines and :meth:`repro.tuning.configurator.PostSiliconConfigurator.
  evaluate` all run it.

Both phases chunk the remaining samples and dispatch them through the
configured :class:`~repro.engine.executor.Executor` under one warm-state
key, ``solver-<state fingerprint>``.  The per-sample solver (with its
constraint topology) is shipped to the workers once and serves solves and
evaluations alike; an evaluation chunk carries only the small
``(plan, step)`` pair and its sample-matrix slices.  The key is
content-derived, so consecutive schedulers over the same compiled
constraint system reuse each other's warm pools.  Results are merged back
**by sample index**, which makes the reduction order — and therefore the
flow output — identical across all executors.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import BatchProblem, ChunkPayload, default_chunk_size, make_chunks
from repro.engine.cache import CacheKey, ResultCache, fingerprint_array, fingerprint_arrays
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.gang import PendingPhase
from repro.engine.progress import PHASE_YIELD_EVAL, EngineStats, NullProgress, ProgressReporter
from repro.engine.shm import get_shared_store, use_shm_for
from repro.obs.metrics import get_registry
from repro.obs.trace import current_context
from repro.obs.trace import span as trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine is a leaf)
    from repro.core.sample_solver import PerSampleSolver, SampleSolution


def _share_bounds(executor, dispatched: List[int], batch: BatchProblem):
    """Publish the phase's bound matrices to shared memory when worth it.

    Returns ``(setup_ref, hold_ref, release)``: the refs are ``None``
    (and ``release`` a no-op) when nothing is ``dispatched`` or inline
    pickling is the better transport (serial executor, small matrices,
    ``REPRO_NO_SHM``).
    ``release`` must be called exactly once, after the phase's result
    stream has fully drained — it drops the store references so the
    segments can retire; calling it earlier could unlink a segment with
    chunks still in flight.

    The segments are keyed by the batch's content fingerprint, computed
    only once the matrices are known to be published, so a phase that
    ships them inline never hashes them.
    """
    if not dispatched or not use_shm_for(executor, batch.setup_bounds, batch.hold_bounds):
        return None, None, lambda: None
    key = batch.fingerprint()
    store = get_shared_store()
    setup_key, hold_key = f"{key}:setup", f"{key}:hold"
    setup_ref = store.checkout(setup_key, batch.setup_bounds)
    hold_ref = store.checkout(hold_key, batch.hold_bounds)
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


def evaluate_plan_chunk(solver: "PerSampleSolver", payload: ChunkPayload) -> List[Tuple[int, bool]]:
    """Feasibility-check every chip of one evaluation chunk.

    The chunk carries only the small ``(plan, step)`` pair in
    :attr:`ChunkPayload.extra`, not a configurator (which would carry the
    whole compiled topology): the worker builds the
    :class:`~repro.tuning.configurator.PostSiliconConfigurator` from the
    warm solver's resident topology and memoises it under
    :attr:`ChunkPayload.extra_key`, so one warm worker pool serves every
    phase, solves and evaluation alike.
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
        memo.clear()  # one plan is live at a time; drop stale entries
        memo[payload.extra_key] = configurator
    payload.resolve()
    with trace_span("engine.chunk", n_samples=payload.n_tasks, **(payload.label or {})):
        results: List[Tuple[int, bool]] = []
        for position, index in enumerate(payload.indices):
            ok, _ = configurator.configure_sample(
                payload.setup_bounds[:, position], payload.hold_bounds[:, position]
            )
            results.append((int(index), bool(ok)))
        return results


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class SampleScheduler:
    """Dispatch per-sample solves and evaluation sweeps over an executor.

    Parameters
    ----------
    solver:
        The per-sample solver (carries the constraint topology; shipped
        to process-pool workers once and reused across phases).  Its
        :meth:`~repro.core.sample_solver.PerSampleSolver.state_fingerprint`
        keys the warm worker state (:attr:`shared_key`), so consecutive
        schedulers over the same compiled system reuse an executor's
        warm worker pool instead of re-shipping state.
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
        gang_width: int = 1,
    ) -> None:
        self.solver = solver
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.stats = stats if stats is not None else EngineStats()
        self.progress = progress if progress is not None else NullProgress()
        self.chunk_size = chunk_size
        self.gang_width = max(1, int(gang_width))
        self.shared_key = f"solver-{solver.state_fingerprint()}"

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

    def _pending_phase(
        self,
        fn: Callable[[Any, ChunkPayload], List[Tuple[int, Any]]],
        phase: str,
        start: float,
        batch: BatchProblem,
        output: Any,
        n_tasks: int,
        dispatched: List[int],
        result: Callable[[], Any],
        **chunk_fields: Any,
    ) -> PendingPhase:
        """Wrap one phase over ``batch`` as a :class:`PendingPhase` of ``fn`` chunks.

        ``n_tasks`` samples need work; ``dispatched`` are those the caller
        did not already fill into ``output``.  The bounds are published to
        shared memory when worth it, ``dispatched`` is chunked with
        ``chunk_fields`` (see :func:`~repro.engine.batch.make_chunks`) and
        every chunk is labelled.  The pending's ``finish`` drains the chunk
        results into ``output`` by sample index, releases the shared memory
        and returns ``result()``, recording progress, stats and one
        ``engine.phase`` span that starts at ``start``.
        """
        registry = get_registry()
        n_hits = n_tasks - len(dispatched)
        self.progress.start(phase, n_tasks)
        setup_ref, hold_ref, release_shared = _share_bounds(self.executor, dispatched, batch)
        chunks = make_chunks(
            dispatched,
            batch.setup_bounds,
            batch.hold_bounds,
            chunk_size=self._chunk_size_for(len(dispatched)),
            setup_ref=setup_ref,
            hold_ref=hold_ref,
            **chunk_fields,
        )
        # The label rides each payload across the process boundary, so
        # chunk spans emitted inside pool workers still carry their
        # campaign cell and phase.  Observability only: never read by
        # chunk functions.
        label: Dict[str, Any] = current_context()
        label["phase"] = phase
        for chunk in chunks:
            chunk.label = label

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
                        for index, value in chunk_result:
                            output[index] = value
                            done += 1
                        self.progress.advance(phase, done, n_tasks)
                finally:
                    release_shared()
                value = result()

                seconds = time.perf_counter() - start
                self.progress.finish(phase, n_tasks, seconds)
                counts = {
                    "n_tasks": n_tasks,
                    "n_dispatched": len(dispatched),
                    "n_cache_hits": n_hits,
                    "n_chunks": len(chunks),
                }
                self.stats.record(phase, seconds=seconds, **counts)
                span_attrs.update(counts)
            return value

        return PendingPhase(
            fn,
            chunks,
            self.solver,
            self.shared_key,
            finish,
            phase=phase,
            context=current_context(),
        )

    # ------------------------------------------------------------------
    def prepare_solve(
        self,
        batch: BatchProblem,
        lower: np.ndarray,
        upper: np.ndarray,
        candidates: Optional[np.ndarray] = None,
        targets: Optional[np.ndarray] = None,
        phase: str = "solve",
    ) -> PendingPhase:
        """Prepare the solve of every violated sample of ``batch``.

        The pending's result has one entry per sample, ``None`` for
        samples that meet timing without any adjustment.  Cache hits are
        filled in here and only the misses are dispatched; their
        solutions enter the cache once the phase has drained.  Results
        are merged by sample index, so the output is independent of the
        executor and chunk layout.
        """
        start = time.perf_counter()
        registry = get_registry()
        solutions: List[Optional[SampleSolution]] = [None] * batch.n_samples
        needed = [int(i) for i in batch.violated_indices()]

        # Cache lookups first; only misses are dispatched.
        to_solve: List[int] = needed
        misses: List[Tuple[int, CacheKey]] = []
        if self.cache is not None and needed:
            keys = self._keys_for(batch, lower, upper, candidates, targets, needed)
            for index, key in zip(needed, keys, strict=True):
                solutions[index] = self.cache.get(key)
                if solutions[index] is None:
                    misses.append((index, key))
            to_solve = [index for index, _ in misses]
        registry.counter("engine.cache.hits").inc(len(needed) - len(to_solve))
        registry.counter("engine.cache.misses").inc(len(to_solve))

        def fill_cache() -> List[Optional[SampleSolution]]:
            for index, key in misses:
                self.cache.put(key, solutions[index])
            return solutions

        return self._pending_phase(
            solve_chunk,
            phase,
            start,
            batch,
            solutions,
            len(needed),
            to_solve,
            fill_cache,
            lower=lower,
            upper=upper,
            candidates=candidates,
            targets=targets,
        )

    def prepare_evaluate_plan(
        self,
        batch: BatchProblem,
        plan: Any,
        step: float,
        phase: str = PHASE_YIELD_EVAL,
    ) -> PendingPhase:
        """Prepare the post-silicon yield sweep of ``plan`` over ``batch``.

        ``batch`` holds the chips' setup and hold bounds in time units.
        Chips passing at the neutral buffer setting are filtered out
        vectorised; the rest are chunked with the small ``(plan, step)``
        pair and dispatched under the scheduler's solver key, so a gang
        of cells sharing one compiled system evaluates *any number of
        plans* (flow plans, baseline plans) on one warm worker pool.
        Sweeping several plans over one ``batch`` hashes its matrices at
        most once: the batch caches its fingerprint, which keys the
        shared-memory segments the sweeps reuse.

        The pending's result is ``(passed, needed_tuning)``, boolean
        per-chip arrays with the semantics of
        :class:`repro.tuning.configurator.TuningEvaluation`.
        """
        start = time.perf_counter()
        needed = batch.violated_mask()
        passed = ~needed
        indices = [int(i) for i in np.where(needed)[0]]
        plan_key = fingerprint_arrays(
            np.frombuffer(repr(plan).encode("utf-8"), dtype=np.uint8),
            np.asarray([float(step)]),
        )
        empty = np.zeros(0)
        return self._pending_phase(
            evaluate_plan_chunk,
            phase,
            start,
            batch,
            passed,
            len(indices),
            indices,
            lambda: (passed, needed),
            lower=empty,
            upper=empty,
            extra=(plan, float(step)),
            extra_key=plan_key,
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
        new cache key and the subsequent :meth:`prepare_solve` only
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
