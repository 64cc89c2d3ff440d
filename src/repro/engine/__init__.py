"""repro.engine — parallel sample-solving execution engine.

The sampling-based flow of the paper is embarrassingly parallel: every
Monte-Carlo training sample spawns an independent per-sample
optimisation, and the final yield evaluation is a second independent
sweep.  This subsystem turns that observation into a common substrate:

* :mod:`repro.engine.executor` — the two executors
  (:class:`SerialExecutor`, :class:`ProcessPoolExecutor`) with chunked
  task submission, warm per-worker state and deterministic per-task
  seed discipline;
* :mod:`repro.engine.batch` — batched sample-problem descriptions and
  chunking;
* :mod:`repro.engine.scheduler` — :class:`SampleScheduler`, which
  prepares the solve phases and the one evaluation sweep: it skips clean
  samples, consults the result cache, dispatches chunks and merges
  results in deterministic sample-index order;
* :mod:`repro.engine.gang` — :class:`PendingPhase` and the functions
  that dispatch it: :func:`run_pending` for one phase, and
  :func:`drive_pending_generators`, which pipelines the phases of many
  cooperative generators (a campaign gang's cells);
* :mod:`repro.engine.cache` — the content-fingerprint keyed
  :class:`ResultCache` that makes pruning re-solves incremental;
* :mod:`repro.engine.progress` — progress reporting and per-phase
  timing instrumentation (:class:`EngineStats`).

For a fixed seed the flow output is bit-identical across all executors;
the executors only change how fast the samples are solved, never what
is solved.
"""

from repro.engine.batch import BatchProblem, ChunkPayload, default_chunk_size, make_chunks
from repro.engine.cache import CacheKey, ResultCache, fingerprint_array, fingerprint_arrays
from repro.engine.executor import (
    EXECUTOR_CHOICES,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    create_executor,
    resolve_jobs,
    spawn_task_seeds,
)
from repro.engine.gang import (
    PendingPhase,
    drive_pending_generator,
    drive_pending_generators,
    gang_dispatch,
    record_dispatch_metrics,
    run_pending,
)
from repro.engine.progress import (
    PHASE_ORDER,
    PHASE_PRUNE_RESOLVE,
    PHASE_STEP1_TRAIN,
    PHASE_STEP2_INTERIM,
    PHASE_STEP2_TRAIN,
    PHASE_YIELD_EVAL,
    EngineStats,
    LogProgress,
    NullProgress,
    PhaseStats,
    ProgressReporter,
)
from repro.engine.scheduler import (
    SampleScheduler,
    evaluate_plan_chunk,
    solve_chunk,
)
from repro.engine.shm import (
    SharedArrayRef,
    SharedColumns,
    SharedMatrixStore,
    get_shared_store,
    shm_enabled,
    use_shm_for,
)

__all__ = [
    "BatchProblem",
    "CacheKey",
    "ChunkPayload",
    "EXECUTOR_CHOICES",
    "EngineStats",
    "Executor",
    "LogProgress",
    "NullProgress",
    "PHASE_ORDER",
    "PHASE_PRUNE_RESOLVE",
    "PHASE_STEP1_TRAIN",
    "PHASE_STEP2_INTERIM",
    "PHASE_STEP2_TRAIN",
    "PHASE_YIELD_EVAL",
    "PendingPhase",
    "PhaseStats",
    "ProcessPoolExecutor",
    "ProgressReporter",
    "ResultCache",
    "SampleScheduler",
    "SerialExecutor",
    "SharedArrayRef",
    "SharedColumns",
    "SharedMatrixStore",
    "create_executor",
    "drive_pending_generator",
    "drive_pending_generators",
    "evaluate_plan_chunk",
    "default_chunk_size",
    "gang_dispatch",
    "fingerprint_array",
    "fingerprint_arrays",
    "get_shared_store",
    "make_chunks",
    "record_dispatch_metrics",
    "resolve_jobs",
    "run_pending",
    "shm_enabled",
    "solve_chunk",
    "spawn_task_seeds",
    "use_shm_for",
]
