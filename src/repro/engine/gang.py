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
* :func:`run_pending` — dispatch + finish immediately.  Every phase is
  finished through it, so its wall clock is the time spent waiting on
  the executor.
* :func:`drive_pending_generators` — run many cooperative generators
  (each yields :class:`PendingPhase` objects and receives their results)
  to completion, pipelined.  A phase is dispatched as soon as its
  generator yields it; phases are finished oldest first, and a generator
  resumes — and dispatches its next phase — as soon as its last phase
  drains, while the workers still work through the other generators'
  queued chunks.  :func:`drive_pending_generator` is its one-generator
  case, and :func:`gang_dispatch` runs one wave of pendings as
  one-phase generators.

On executors with keyed worker state (the process pool) a phase whose
``shared_key`` differs from that of a phase in flight waits, undispatched,
until those have drained: submitting a second key restarts the pool.
Campaign cells grouped by compiled-system fingerprint share one key, so
their phases never wait for this.

When a phase or a generator raises, every other queued phase is still
finished (which checks its shared-memory segments back in), every
generator is closed, and the first error is re-raised.

Determinism: chunk layout and dispatch order never reach the results —
every ``finish`` merges by sample index, and each pending's chunks were
prepared from purely per-cell inputs.  Pipelined and sequential dispatch
are therefore bit-identical; only the wall clock changes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence, Tuple

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

    @property
    def dispatched(self) -> bool:
        return self._stream is not None

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
    """Dispatch one pending phase (if not yet dispatched) and finish it."""
    return pending.dispatch(executor).finish()


PendingGenerator = Generator[PendingPhase, Any, Any]


def drive_pending_generators(
    generators: Sequence[PendingGenerator], executor: Executor
) -> List[Any]:
    """Advance pending-yielding generators to completion, pipelined.

    Every generator is started in turn and each yielded phase is
    dispatched at once, so the workers start on the first phase while the
    later generators still prepare theirs.  Then the oldest dispatched
    phase is finished through :func:`run_pending`, its result is sent back
    and the next phase of that generator is dispatched at once, behind the
    chunks still queued for the others.  Returns the generators' return
    values, aligned with ``generators``.
    """
    keyed = getattr(executor, "keyed_state", False)
    results: List[Any] = [None] * len(generators)
    queue: List[Tuple[int, PendingPhase]] = []  # in yield order

    def dispatch_ready() -> None:
        in_flight = {pending.shared_key for _, pending in queue if pending.dispatched}
        for _, pending in queue:
            if pending.dispatched or (keyed and in_flight and pending.shared_key not in in_flight):
                continue
            pending.dispatch(executor)
            in_flight.add(pending.shared_key)

    def advance(index: int, value: Any) -> None:
        try:
            queue.append((index, generators[index].send(value)))
        except StopIteration as stop:
            results[index] = stop.value
        dispatch_ready()

    try:
        for index in range(len(generators)):
            advance(index, None)
        while queue:
            position = next(i for i, (_, pending) in enumerate(queue) if pending.dispatched)
            index, pending = queue.pop(position)
            advance(index, run_pending(pending, executor))
    except Exception:
        # Drain the rest first: a phase checks its shared-memory segments
        # back in only when it finishes.
        for _, pending in queue:
            try:
                pending.finish()
            except Exception:
                pass  # the first error is the one re-raised
        for generator in generators:
            generator.close()
        raise
    return results


def drive_pending_generator(generator: PendingGenerator, executor: Executor) -> Any:
    """Advance one pending-yielding generator to completion and return its value.

    Each yielded phase is dispatched and finished before the generator
    resumes, so a flow driven this way is bit-identical to a pipelined one.
    """
    return drive_pending_generators([generator], executor)[0]


def _one_phase(pending: PendingPhase) -> PendingGenerator:
    return (yield pending)


def gang_dispatch(pendings: List[PendingPhase], executor: Executor) -> List[Any]:
    """Run one wave of pending phases, overlapping whatever the executor
    allows, and return their results aligned with ``pendings``.

    On a keyed-state executor the wave runs key by key, in order of first
    appearance: all phases of one key are dispatched before any is
    drained, and the next key only once they have all drained.
    """
    return drive_pending_generators([_one_phase(pending) for pending in pendings], executor)
