"""The campaign worker daemon behind ``repro work``.

A worker is a loop around the queue: lease the oldest claimable job,
rebuild its :class:`~repro.campaign.spec.CampaignSpec` from the submit
payload, run it through the existing
:class:`~repro.campaign.runner.CampaignRunner` (batched gang dispatch
on one warm executor, optional shared result pool so overlapping
submissions deduplicate work), and mark the job done or failed.

While a job runs, a background thread heartbeats the lease at a
fraction of its duration, and the runner's per-cell ``on_progress``
callback nudges the same heartbeat opportunistically — a worker that is
visibly committing cells can never lose its lease to a slow wall clock.
If the heartbeat discovers the lease was lost anyway (the worker
stalled past its deadline and the job was re-leased), the run is
aborted at the next progress tick: the job's checkpointed store keeps
every completed cell, and whichever worker finishes resumes
bit-identically.

Crash recovery is inherited, not implemented here: a SIGKILLed worker
leaves a leased job whose heartbeat deadline expires, the queue hands
it to the next worker, and the runner's resume discipline skips every
cell the dead worker already committed.

Jobs of one burst usually share a design (one circuit matrix run at
several seeds and budgets), so a worker keeps the last
:data:`DESIGN_CACHE_SIZE` designs it built, keyed by ``(circuit,
scale, design_seed)``, for its whole life and hands them to each job's
runner.  A design is a pure function of that key, and a campaign
already shares one design across all its cells, so reuse changes no
result byte.
"""

from __future__ import annotations

import functools
import os
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.queue import JobQueue, JobView, ServiceError

#: Fraction of the lease duration between heartbeats.
HEARTBEAT_FRACTION = 0.25

#: Built designs a worker keeps across jobs, least recently used dropped first.
DESIGN_CACHE_SIZE = 4


class LeaseLost(ServiceError):
    """This worker no longer holds the lease on the job it is running."""


def default_worker_id() -> str:
    """``<hostname>:<pid>`` — unique per live process, stable within it."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerSummary:
    """What one :meth:`CampaignWorker.run` invocation did."""

    worker: str
    n_jobs: int = 0
    n_done: int = 0
    n_failed: int = 0
    job_fingerprints: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "n_jobs": self.n_jobs,
            "n_done": self.n_done,
            "n_failed": self.n_failed,
            "job_fingerprints": list(self.job_fingerprints),
        }


class _Heartbeat:
    """Background lease heartbeat for one running job.

    Beats every ``lease_seconds * HEARTBEAT_FRACTION``; :meth:`nudge`
    (called from the runner's progress callback) beats immediately when
    at least one interval has passed, without waiting on the timer.
    Losing the lease sets :attr:`lost` instead of raising — the runner
    thread checks it at every progress tick and aborts there, so the
    abort happens between committed cells, never mid-append.
    """

    def __init__(
        self, queue: JobQueue, fingerprint: str, worker: str, lease_seconds: float
    ) -> None:
        self.queue = queue
        self.fingerprint = fingerprint
        self.worker = worker
        self.lease_seconds = float(lease_seconds)
        self.interval = max(0.05, self.lease_seconds * HEARTBEAT_FRACTION)
        self.lost: Optional[str] = None
        self.n_beats = 0
        self._last_beat = time.monotonic()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{fingerprint}", daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=max(5.0, 2 * self.interval))

    def _beat(self) -> None:
        with self._lock:
            if self.lost is not None:
                return
            try:
                self.queue.heartbeat(self.fingerprint, self.worker, self.lease_seconds)
                self.n_beats += 1
                self._last_beat = time.monotonic()
            except ServiceError as error:
                self.lost = str(error)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._beat()

    def nudge(self) -> None:
        """Beat now if an interval has passed (cheap to call per cell)."""
        if time.monotonic() - self._last_beat >= self.interval:
            self._beat()

    def check(self) -> None:
        """Raise :class:`LeaseLost` when the lease is gone."""
        if self.lost is not None:
            raise LeaseLost(
                f"lease on job {self.fingerprint!r} lost by {self.worker!r}: {self.lost}"
            )


class CampaignWorker:
    """Lease-and-run loop over one job queue.

    Parameters
    ----------
    queue:
        The :class:`JobQueue` to lease from (or a queue URI).
    worker_id:
        Identity recorded in lease/heartbeat events
        (default ``<hostname>:<pid>``).
    executor / jobs / dispatch:
        Passed through to :class:`~repro.campaign.runner.CampaignRunner`
        for every job.
    pool:
        Pool URI overriding the job's own (``None``: honour the job's).
    lease_seconds:
        Lease duration granted on claim and extended per heartbeat.
    poll_seconds:
        Idle sleep between claim attempts when the queue has no
        claimable job.
    progress:
        Stream per-cell progress lines to stderr.

    :attr:`build_design` is the worker's design LRU (see the module
    docstring); every job's runner builds its designs through it.
    """

    def __init__(
        self,
        queue: JobQueue,
        worker_id: Optional[str] = None,
        executor: str = "serial",
        jobs: Optional[int] = None,
        dispatch: str = "batched",
        pool: Optional[str] = None,
        lease_seconds: float = 60.0,
        poll_seconds: float = 2.0,
        progress: bool = False,
    ) -> None:
        if lease_seconds <= 0:
            raise ServiceError(f"lease_seconds must be positive, got {lease_seconds}")
        if poll_seconds <= 0:
            raise ServiceError(f"poll_seconds must be positive, got {poll_seconds}")
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue.open(str(queue))
        self.worker_id = worker_id or default_worker_id()
        self.executor = executor
        self.jobs = jobs
        self.dispatch = dispatch
        self.pool = pool
        self.lease_seconds = float(lease_seconds)
        self.poll_seconds = float(poll_seconds)
        self.progress = bool(progress)
        self.stop_event = threading.Event()
        from repro.campaign.runner import build_design

        self.build_design = functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)(build_design)

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.progress:
            print(f"[worker {self.worker_id}] {message}", file=sys.stderr, flush=True)

    def _registry(self):
        from repro.obs import get_registry

        return get_registry()

    # ------------------------------------------------------------------
    def run_job(self, job: JobView) -> JobView:
        """Execute one leased job to completion (or failure).

        Returns the job's terminal view.  :class:`LeaseLost` propagates
        without marking the job failed — the work now belongs to
        whichever worker re-leased it.
        """
        from repro.campaign.pool import ResultPool
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore
        from repro.obs import span, trace_context

        registry = self._registry()
        start = time.perf_counter()
        try:
            with span(
                "service.job",
                fingerprint=job.fingerprint,
                campaign=job.name,
                worker=self.worker_id,
            ), trace_context(job=job.fingerprint):
                spec = CampaignSpec.from_dict(dict(job.spec))
                store = CampaignStore.open(job.store)
                pool_uri = self.pool or job.pool
                pool = ResultPool(pool_uri) if pool_uri else None
                with _Heartbeat(
                    self.queue, job.fingerprint, self.worker_id, self.lease_seconds
                ) as heartbeat:

                    def on_progress(tick) -> None:
                        heartbeat.check()
                        heartbeat.nudge()
                        registry.counter("service.worker.cells").inc()

                    runner = CampaignRunner(
                        spec,
                        store,
                        executor=self.executor,
                        jobs=self.jobs,
                        pool=pool,
                        progress=self.progress,
                        dispatch=self.dispatch,
                        on_progress=on_progress,
                        design_builder=self.build_design,
                    )
                    summary = runner.run()
                    heartbeat.check()
        except LeaseLost:
            registry.counter("service.worker.leases_lost").inc()
            self._log(f"job {job.fingerprint} lease lost; abandoning")
            raise
        except Exception as error:  # noqa: BLE001 - job failures must not kill the daemon
            registry.counter("service.jobs.failed").inc()
            self._log(f"job {job.fingerprint} failed: {error}")
            return self.queue.fail(job.fingerprint, self.worker_id, str(error))
        registry.counter("service.jobs.completed").inc()
        registry.histogram("service.job.seconds").observe(time.perf_counter() - start)
        self._log(
            f"job {job.fingerprint} ({job.name}) done: "
            f"{summary.n_run} run, {summary.n_pool_reused} pooled, "
            f"{summary.n_completed_before} resumed in {summary.seconds:.2f} s"
        )
        return self.queue.complete(job.fingerprint, self.worker_id)

    def run_once(self) -> Optional[JobView]:
        """Claim and run at most one job; ``None`` when the queue is idle."""
        job = self.queue.claim(self.worker_id, self.lease_seconds)
        if job is None:
            return None
        self._registry().counter("service.jobs.leased").inc()
        self._log(f"leased job {job.fingerprint} ({job.name}), attempt {job.attempts}")
        try:
            return self.run_job(job)
        except LeaseLost:
            return self.queue.job(job.fingerprint)

    def run(
        self,
        max_jobs: Optional[int] = None,
        exit_when_idle: bool = False,
    ) -> WorkerSummary:
        """The daemon loop: claim, run, repeat.

        Stops when ``max_jobs`` jobs have been processed, the queue is
        drained and ``exit_when_idle`` is set, or :attr:`stop_event` is
        set (the CLI's signal handlers set it for graceful shutdown).

        ``exit_when_idle`` means *drained*, not merely "nothing
        claimable right now": a job leased to a worker that just died
        is not claimable until its lease expires, and exiting in that
        window would strand it.  The worker keeps polling until every
        job is terminal (done/failed).
        """
        summary = WorkerSummary(worker=self.worker_id)
        while not self.stop_event.is_set():
            if max_jobs is not None and summary.n_jobs >= max_jobs:
                break
            view = self.run_once()
            if view is None:
                if exit_when_idle:
                    depth = self.queue.depth()
                    if depth.queued + depth.leased + depth.expired == 0:
                        break
                self.stop_event.wait(self.poll_seconds)
                continue
            summary.n_jobs += 1
            summary.job_fingerprints.append(view.fingerprint)
            if view.state == "done":
                summary.n_done += 1
            elif view.state == "failed":
                summary.n_failed += 1
        return summary


__all__ = [
    "DESIGN_CACHE_SIZE",
    "HEARTBEAT_FRACTION",
    "CampaignWorker",
    "LeaseLost",
    "WorkerSummary",
    "default_worker_id",
]
