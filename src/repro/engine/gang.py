"""Gang dispatch: many prepared engine phases in flight at once.

The scheduler's phases (:meth:`~repro.engine.scheduler.SampleScheduler.
prepare_solve`, :meth:`~repro.engine.scheduler.SampleScheduler.
prepare_evaluate_plan`) each end in a barrier when run one at a time:
chunks are submitted, drained and merged before the caller continues.
Run N campaign cells back to back and the executor pays N x phases of
those barriers — on a process pool the workers idle between every drain
and the next submission.

This module removes the barrier *between peers* without touching what is
computed:

* :class:`PendingPhase` — one prepared phase: labelled chunks, the warm
  shared object and its key, and a ``finish`` closure that drains the
  result stream and reproduces the sequential merge (by sample index),
  bookkeeping and spans.
* :func:`run_pending` — dispatch + finish immediately.  The sequential
  path, taken by every phase run one at a time.
* :func:`gang_dispatch` — dispatch one *wave* of pendings from many
  peers, submitting everything that can share warm worker state before
  draining anything.  On executors with keyed worker state (the process
  pool) pendings are grouped by ``shared_key`` and drained group by
  group — submitting a second key would restart the pool and orphan the
  first group's futures.  The stateless serial executor submits the
  whole wave up front.
* :func:`drive_pending_generator` — run a cooperative generator (one
  that yields :class:`PendingPhase` objects and receives their results)
  to completion sequentially.

Determinism: chunk layout and dispatch order never reach the results —
every ``finish`` merges by sample index, and each pending's chunks were
prepared from purely per-cell inputs.  Ganged and sequential dispatch
are therefore bit-identical; only the wall clock changes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterator, List, Optional

from repro.engine.batch import ChunkPayload
from repro.engine.executor import Executor
from repro.obs.metrics import get_registry
from repro.obs.trace import trace_context


def record_dispatch_metrics(
    executor: Executor, shared_key: Optional[str], chunks: List[ChunkPayload]
) -> None:
    """Count warm-pool reuse vs. cold dispatch and observe chunk sizes."""
    if not chunks:
        return
    registry = get_registry()
    # warm_key must be read BEFORE map_chunks: dispatch itself warms
    # the pool, which would make every dispatch look like a reuse.
    if getattr(executor, "warm_key", None) == shared_key:
        registry.counter("engine.pool.warm_reuses").inc()
    else:
        registry.counter("engine.pool.cold_dispatches").inc()
    sizes = registry.histogram("engine.chunk.size")
    for chunk in chunks:
        sizes.observe(chunk.n_tasks)


class PendingPhase:
    """One prepared engine phase awaiting dispatch.

    Attributes
    ----------
    fn / chunks / shared / shared_key:
        The arguments of the phase's :meth:`Executor.map_chunks` call.
    phase:
        Phase label (observability / debugging).
    context:
        Ambient trace context captured at preparation time; re-pushed
        around :meth:`finish` so spans emitted while draining stay
        attributed to their cell even when many cells interleave.
    """

    __slots__ = ("fn", "chunks", "shared", "shared_key", "phase", "context", "_finish", "_stream")

    def __init__(
        self,
        fn: Callable[[Any, Any], Any],
        chunks: List[ChunkPayload],
        shared: Any,
        shared_key: Optional[str],
        finish: Callable[[Iterator[Any]], Any],
        phase: str = "",
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.fn = fn
        self.chunks = chunks
        self.shared = shared
        self.shared_key = shared_key
        self.phase = phase
        self.context = dict(context) if context else {}
        self._finish = finish
        self._stream: Optional[Iterator[Any]] = None

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def dispatch(self, executor: Executor) -> "PendingPhase":
        """Submit the chunks (idempotent; lazy on the serial executor)."""
        if self._stream is None:
            record_dispatch_metrics(executor, self.shared_key, self.chunks)
            self._stream = executor.map_chunks(
                self.fn, self.chunks, shared=self.shared, shared_key=self.shared_key
            )
        return self

    def finish(self) -> Any:
        """Drain the result stream and return the phase's value."""
        stream = self._stream if self._stream is not None else iter(())
        if self.context:
            with trace_context(**self.context):
                return self._finish(stream)
        return self._finish(stream)


def run_pending(pending: PendingPhase, executor: Executor) -> Any:
    """Dispatch one pending phase and finish it immediately (sequential)."""
    return pending.dispatch(executor).finish()


def gang_dispatch(pendings: List[PendingPhase], executor: Executor) -> List[Any]:
    """Run one wave of pending phases, overlapping whatever the executor
    allows, and return their results aligned with ``pendings``.

    Executors with keyed worker state (``executor.keyed_state``) restart
    their pool when the shared key changes, so the wave is grouped by
    key in first-appearance order: every group is fully submitted before
    it is drained, and a new key is only submitted once the previous
    group has drained.  Campaign cells grouped by compiled-system
    fingerprint share one key, which makes the common case — N cells of
    one design — a single submission burst over one warm pool.
    """
    results: List[Any] = [None] * len(pendings)
    if not pendings:
        return results
    if getattr(executor, "keyed_state", False):
        order: List[Optional[str]] = []
        groups: Dict[Optional[str], List[int]] = {}
        for i, pending in enumerate(pendings):
            if pending.shared_key not in groups:
                groups[pending.shared_key] = []
                order.append(pending.shared_key)
            groups[pending.shared_key].append(i)
        for key in order:
            members = groups[key]
            for i in members:
                pendings[i].dispatch(executor)
            for i in members:
                results[i] = pendings[i].finish()
    else:
        for pending in pendings:
            pending.dispatch(executor)
        for i, pending in enumerate(pendings):
            results[i] = pending.finish()
    return results


def drive_pending_generator(
    generator: Generator[PendingPhase, Any, Any], executor: Executor
) -> Any:
    """Advance a pending-yielding generator to completion, sequentially.

    Each yielded :class:`PendingPhase` is dispatched and finished before
    the generator resumes (:func:`run_pending`), so a flow driven this
    way is bit-identical to a ganged one.  Returns the generator's
    return value.
    """
    try:
        pending = next(generator)
        while True:
            pending = generator.send(run_pending(pending, executor))
    except StopIteration as stop:
        return stop.value
