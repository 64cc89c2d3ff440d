"""Pluggable execution backends for the sample-solving engine.

Two interchangeable executors run chunks of independent per-sample
tasks:

* :class:`SerialExecutor` — everything in the calling thread, zero
  overhead, the reference for determinism checks;
* :class:`ProcessPoolExecutor` — a worker-process pool with *chunked*
  task submission and warm worker state: a shared object (the per-sample
  solver with its constraint topology, or the post-silicon configurator)
  is shipped to every worker exactly once via the pool initializer and
  reused for all subsequent chunks, so per-chunk payloads stay small.

Both expose the same :meth:`Executor.map_chunks` contract and return
results **in submission order**, which is what lets the scheduler reduce
them deterministically: for a fixed seed, both executors produce
bit-identical flow results.

Seed discipline
---------------
Stochastic tasks must not derive randomness from worker identity or
arrival order.  :func:`spawn_task_seeds` derives one deterministic seed
per *task index* from a base seed, so a task's random stream is the same
no matter which worker runs it or how tasks are chunked.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

#: Names accepted by :func:`create_executor` (and the CLI ``--executor`` flag).
EXECUTOR_CHOICES = ("serial", "processes")

#: Type of the per-chunk worker callable: ``fn(shared, payload) -> result``.
ChunkFn = Callable[[Any, Any], Any]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Number of workers to use: ``jobs`` if given, else the CPU count."""
    if jobs is None:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def spawn_task_seeds(base_seed: Optional[int], indices: Sequence[int]) -> List[Optional[int]]:
    """One deterministic seed per task index, independent of chunking.

    Seeds depend only on ``(base_seed, index)``, never on which worker or
    chunk a task lands in, so stochastic tasks stay reproducible across
    executors.  Returns ``None`` entries when ``base_seed`` is ``None``.
    """
    if base_seed is None:
        return [None] * len(indices)
    return [
        int(np.random.SeedSequence(entropy=[int(base_seed) & (2**63 - 1), int(i)]).generate_state(1)[0])
        for i in indices
    ]


# ----------------------------------------------------------------------
# Worker-side shared state (process pool)
# ----------------------------------------------------------------------
_WORKER_SHARED: Any = None


def _init_worker(shared: Any) -> None:
    """Pool initializer: stash the shared object in the worker process."""
    global _WORKER_SHARED
    _WORKER_SHARED = shared
    threading.Thread(target=_exit_with_parent, name="exit-with-parent", daemon=True).start()


def _exit_with_parent() -> None:
    """Exit the worker as soon as the process that started it is gone.

    A parent killed with SIGKILL never shuts its pool down, and its
    workers would wait on the call queue under PID 1 forever: forked
    workers hold that queue's write end themselves, so reading it never
    reports EOF.
    """
    import multiprocessing.connection

    parent = multiprocessing.parent_process()
    if parent is not None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)


def _run_with_shared(fn: ChunkFn, payload: Any) -> Any:
    """Invoke ``fn`` against the worker's warm shared object."""
    return fn(_WORKER_SHARED, payload)


# ----------------------------------------------------------------------
# Executor interface
# ----------------------------------------------------------------------
class Executor(ABC):
    """Common interface of the execution backends.

    An executor runs a chunk function over a list of payloads and yields
    the per-chunk results **in submission order, as they become
    available** — consumers can report live progress while later chunks
    are still running.  Iterate the returned iterator to completion to
    drive (serial) or drain (parallel) the work.  ``shared`` is an
    arbitrary read-only object every invocation needs (solver,
    configurator, ...); parallel backends may cache it in their workers
    keyed by ``shared_key`` so consecutive calls with the same key reuse
    warm workers without re-shipping the object.
    """

    name: str = "abstract"

    #: Whether the executor keeps warm worker state keyed by
    #: ``shared_key`` (a dispatch with a *different* key tears the state
    #: down).  Gang dispatch uses this to decide whether a wave of
    #: differently-keyed phases must be drained group by group.
    keyed_state: bool = False

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)

    @abstractmethod
    def map_chunks(
        self,
        fn: ChunkFn,
        payloads: Iterable[Any],
        shared: Any = None,
        shared_key: Optional[str] = None,
    ) -> Iterator[Any]:
        """Run ``fn(shared, payload)`` for every payload, yielding in order."""

    @property
    def warm_key(self) -> Optional[str]:
        """The ``shared_key`` whose state is currently resident in the
        workers (``None`` for stateless executors or a cold pool)."""
        return None

    def close(self) -> None:
        """Release pools and worker processes (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """Run every chunk inline in the calling thread (the baseline)."""

    name = "serial"

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__(1 if jobs is None else jobs)

    def map_chunks(
        self,
        fn: ChunkFn,
        payloads: Iterable[Any],
        shared: Any = None,
        shared_key: Optional[str] = None,
    ) -> Iterator[Any]:
        for payload in payloads:
            yield fn(shared, payload)


class ProcessPoolExecutor(Executor):
    """Run chunks on a worker-process pool with warm shared state.

    The first call (or a call with a new ``shared_key``) starts the pool
    with an initializer that installs ``shared`` in every worker; later
    calls with the same key submit only the small per-chunk payloads —
    the shared object (e.g. the per-sample solver with its compiled
    constraint topology) crosses the process boundary exactly once.
    Content-derived keys (see
    :meth:`repro.core.sample_solver.PerSampleSolver.state_fingerprint`)
    extend the reuse across *consumers*: any caller whose shared object
    fingerprints identically to the resident one inherits the warm pool,
    so a flow's solve phases, its yield evaluation and even subsequent
    flow runs on the same design all share one pool start-up.
    Chunked submission amortises the pickling and IPC cost over many
    samples per round trip.
    """

    name = "processes"
    keyed_state = True

    def __init__(self, jobs: Optional[int] = None, mp_context: Optional[str] = None) -> None:
        super().__init__(jobs)
        self._mp_context = mp_context
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._shared_key: Optional[str] = None

    @property
    def warm_key(self) -> Optional[str]:
        return self._shared_key if self._pool is not None else None

    def _ensure_pool(self, shared: Any, shared_key: Optional[str]) -> concurrent.futures.ProcessPoolExecutor:
        # Without an explicit key the pool restarts every call: keying on
        # object identity would let a recycled id() silently match a warm
        # pool still holding a *different* shared object.
        key = shared_key if shared_key is not None else f"anonymous-{next(_ANONYMOUS_KEYS)}"
        if self._pool is not None and key == self._shared_key:
            return self._pool
        self.close()
        import multiprocessing

        context = multiprocessing.get_context(self._mp_context) if self._mp_context else None
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(shared,),
        )
        self._shared_key = key
        return self._pool

    def map_chunks(
        self,
        fn: ChunkFn,
        payloads: Iterable[Any],
        shared: Any = None,
        shared_key: Optional[str] = None,
    ) -> Iterator[Any]:
        payloads = list(payloads)
        if not payloads:
            return iter(())
        pool = self._ensure_pool(shared, shared_key)
        futures = [pool.submit(_run_with_shared, fn, payload) for payload in payloads]
        # Every chunk is already running; yielding in submission order
        # keeps downstream reductions deterministic while the consumer
        # still sees progress chunk by chunk.
        return (future.result() for future in futures)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._shared_key = None


#: Source of one-shot pool keys for map_chunks calls without a shared_key.
_ANONYMOUS_KEYS = itertools.count()


def create_executor(
    executor: Union[str, Executor, None] = "serial", jobs: Optional[int] = None
) -> Executor:
    """Build an executor from a name (or pass an existing one through).

    Parameters
    ----------
    executor:
        ``"serial"``, ``"processes"``, an :class:`Executor`
        instance (returned unchanged), or ``None`` (serial).
    jobs:
        Worker count for the parallel backends (default: CPU count).
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    if executor == "serial":
        return SerialExecutor(jobs)
    if executor == "processes":
        return ProcessPoolExecutor(jobs)
    raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_CHOICES}")
