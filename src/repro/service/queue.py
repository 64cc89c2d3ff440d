"""Durable campaign job queue over a pluggable store backend.

A *job* is a campaign spec submitted for execution.  The queue is a
thin domain layer over :mod:`repro.store` — the same storage tier that
holds campaign results — so it inherits durability (fsynced appends),
crash tolerance (torn final lines are invisible), and the
read-check-append :meth:`~repro.store.base.StoreBackend.transaction`
critical section for both drivers.

The queue is **event-sourced**: every state change is one appended
record and the current state of a job is a fold over the store's append
history.  Nothing is ever rewritten in place, so a SIGKILLed worker or
server leaves the queue exactly as durable as its last append:

``submit``
    carries the full spec payload, the derived result-store URI and the
    optional pool URI.  The job fingerprint is the **spec's content
    fingerprint**, so submitting the same spec twice (or from two
    users) dedupes onto one job and one result store.
``lease``
    a worker claimed the job; carries the worker id and a heartbeat
    ``deadline_unix``.  Leases are granted inside a store transaction,
    so two workers racing for the same job cannot both win.  A lease
    whose deadline has passed makes the job claimable again — that is
    the whole crash-recovery story, because the result store already
    checkpoints per cell and the rerun resumes bit-identically.
``heartbeat``
    the holding worker extended its deadline.
``complete`` / ``fail``
    terminal states.  Completion is idempotent: completing a job that
    is already done is a no-op, so a worker that lost its lease mid-run
    (and whose work was re-executed deterministically elsewhere) cannot
    corrupt anything by finishing late.

The fold is per job: no event changes another job's view.  So reading
or mutating one job (``job``, ``require``, ``submit``, ``heartbeat``,
``complete``, ``fail``) folds only that job's events, read with
``history(fingerprint)``; only ``claim``, ``jobs`` and ``depth``, which
must see every job, fold the whole log.

Every event carries an ``at_unix`` timestamp.  Besides being useful, it
keeps event records *unique*, which the SQLite driver's history table
requires to store two otherwise-identical events (its history is
deduplicated on exact record content).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignError, CampaignSpec
from repro.store import StoreBackend, StoreError, open_store, parse_store_uri

#: Version of the queue event schema; bump on breaking layout changes.
QUEUE_SCHEMA_VERSION = 1

#: Event kinds, in lifecycle order.
JOB_EVENTS = ("submit", "lease", "heartbeat", "complete", "fail")

#: Job states a fold can produce.
JOB_STATES = ("queued", "leased", "done", "failed")


class ServiceError(StoreError):
    """A queue, job or service request is invalid."""


class JobNotFound(ServiceError):
    """The requested job fingerprint is not in the queue."""


def validate_queue_record(record: object) -> Dict[str, object]:
    """Structural validation of one queue event record (raises on mismatch)."""
    if not isinstance(record, dict):
        raise ServiceError("queue record must be a JSON object")
    version = record.get("schema_version")
    if not isinstance(version, int):
        raise ServiceError("queue record is missing an integer 'schema_version'")
    if version > QUEUE_SCHEMA_VERSION:
        raise ServiceError(
            f"queue record schema version {version} is newer than supported "
            f"{QUEUE_SCHEMA_VERSION}"
        )
    fingerprint = record.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise ServiceError("queue record is missing its 'fingerprint'")
    event = record.get("event")
    if event not in JOB_EVENTS:
        raise ServiceError(
            f"queue record has unknown event {event!r}; expected one of {JOB_EVENTS}"
        )
    if not isinstance(record.get("at_unix"), (int, float)):
        raise ServiceError("queue record is missing its 'at_unix' timestamp")
    if event == "submit":
        if not isinstance(record.get("spec"), dict):
            raise ServiceError("submit event is missing its 'spec' object")
        if not isinstance(record.get("store"), str) or not record["store"]:
            raise ServiceError("submit event is missing its result 'store' URI")
    if event in ("lease", "heartbeat"):
        if not isinstance(record.get("worker"), str) or not record["worker"]:
            raise ServiceError(f"{event} event is missing its 'worker' id")
        if not isinstance(record.get("deadline_unix"), (int, float)):
            raise ServiceError(f"{event} event is missing its 'deadline_unix'")
    if event == "fail" and not isinstance(record.get("error"), str):
        raise ServiceError("fail event is missing its 'error' message")
    return record


def default_job_store_uri(queue_uri: str, name: str, fingerprint: str) -> str:
    """Result-store URI derived from the queue URI for one job.

    ``<queue-dir>/<queue-stem>.jobs/JOB_<name>-<fp>.<ext>`` with the
    queue's own driver, so a sqlite queue gets sqlite result stores.
    The fingerprint keys the file, so distinct specs can never share a
    store even when their sanitised names collide; the URI is recorded
    in the submit event, making the derivation a default, not a
    contract.
    """
    parsed = parse_store_uri(queue_uri)
    stem, _ = os.path.splitext(parsed.path)
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in str(name))
    ext = "sqlite" if parsed.driver == "sqlite" else "jsonl"
    path = os.path.join(f"{stem}.jobs", f"JOB_{safe}-{fingerprint}.{ext}")
    return f"{parsed.driver}:{path}"


@dataclass
class JobView:
    """The folded current state of one queued job.

    Attributes
    ----------
    fingerprint:
        Content fingerprint of the spec (the job id).
    name:
        Campaign name from the spec payload.
    state:
        One of :data:`JOB_STATES`.
    spec:
        The submitted spec payload (``CampaignSpec.as_dict`` form).
    store / pool:
        Result-store URI and optional shared-pool URI for this job.
    submitted_unix:
        Timestamp of the first submit event.
    worker / deadline_unix:
        Current (or last) lease holder and its heartbeat deadline.
    attempts:
        Number of lease events so far (1 = first execution).
    error:
        Failure message when ``state == "failed"``.
    finished_unix:
        Timestamp of the terminal event, when there is one.
    """

    fingerprint: str
    name: str
    state: str
    spec: Dict[str, object]
    store: str
    pool: Optional[str] = None
    submitted_unix: float = 0.0
    worker: Optional[str] = None
    deadline_unix: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    finished_unix: Optional[float] = None

    def claimable(self, now: float) -> bool:
        """Whether a worker may lease this job at time ``now``."""
        if self.state == "queued":
            return True
        return self.state == "leased" and self.deadline_unix is not None and (
            now > self.deadline_unix
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (the API's job payload)."""
        return {
            "fingerprint": self.fingerprint,
            "name": self.name,
            "state": self.state,
            "spec": self.spec,
            "store": self.store,
            "pool": self.pool,
            "submitted_unix": self.submitted_unix,
            "worker": self.worker,
            "deadline_unix": self.deadline_unix,
            "attempts": self.attempts,
            "error": self.error,
            "finished_unix": self.finished_unix,
        }


@dataclass
class QueueDepth:
    """Counts of jobs per state (plus expired leases) at one instant."""

    queued: int = 0
    leased: int = 0
    expired: int = 0
    done: int = 0
    failed: int = 0
    by_state: Dict[str, int] = field(default_factory=dict)

    @property
    def claimable(self) -> int:
        return self.queued + self.expired

    @property
    def total(self) -> int:
        return self.queued + self.leased + self.expired + self.done + self.failed

    def as_dict(self) -> Dict[str, int]:
        return {
            "queued": self.queued,
            "leased": self.leased,
            "expired": self.expired,
            "done": self.done,
            "failed": self.failed,
            "claimable": self.claimable,
            "total": self.total,
        }


def _fold_events(events: List[Dict[str, object]]) -> Dict[str, JobView]:
    """Fold an event history into per-job views, in submission order.

    The fold is deliberately forgiving: events that do not apply to the
    job's current state (a heartbeat from a worker that lost its lease,
    a duplicate complete, a resubmit of an existing spec) are dropped
    rather than raised — late messages from crashed or superseded
    workers are normal operation for a durable queue, not corruption.
    """
    jobs: Dict[str, JobView] = {}
    for record in events:
        fingerprint = str(record["fingerprint"])
        event = record["event"]
        at = float(record["at_unix"])
        view = jobs.get(fingerprint)
        if event == "submit":
            if view is None:
                spec = dict(record["spec"])
                jobs[fingerprint] = JobView(
                    fingerprint=fingerprint,
                    name=str(spec.get("name", "")),
                    state="queued",
                    spec=spec,
                    store=str(record["store"]),
                    pool=(None if record.get("pool") is None else str(record["pool"])),
                    submitted_unix=at,
                )
            continue
        if view is None:
            # An orphan event (store truncated below its submit record);
            # nothing to fold it into.
            continue
        if event == "lease":
            if view.state in ("done", "failed"):
                continue
            view.state = "leased"
            view.worker = str(record["worker"])
            view.deadline_unix = float(record["deadline_unix"])
            view.attempts += 1
        elif event == "heartbeat":
            if view.state == "leased" and view.worker == record.get("worker"):
                view.deadline_unix = float(record["deadline_unix"])
        elif event == "complete":
            if view.state == "done":
                continue
            view.state = "done"
            view.worker = str(record.get("worker") or "") or view.worker
            view.error = None
            view.finished_unix = at
        elif event == "fail":
            if view.state in ("done", "failed"):
                continue
            view.state = "failed"
            view.worker = str(record.get("worker") or "") or view.worker
            view.error = str(record.get("error") or "")
            view.finished_unix = at
    return jobs


class JobQueue:
    """Durable job queue: an event log over one store backend.

    Construct with :meth:`open` and a store URI (``jsonl:path`` /
    ``sqlite:path``; bare paths infer ``jsonl``).  All mutating
    operations run inside the backend's transaction, so concurrent
    submitters and workers — threads or processes — serialise on the
    same critical section campaign stores already use.
    """

    def __init__(self, backend: StoreBackend) -> None:
        self.backend = backend

    @classmethod
    def open(cls, uri: str) -> "JobQueue":
        """Open the queue addressed by a store URI."""
        return cls(open_store(str(uri), validator=validate_queue_record, error=ServiceError))

    # ------------------------------------------------------------------
    @property
    def uri(self) -> str:
        return self.backend.uri

    @property
    def path(self) -> str:
        return self.backend.path

    def close(self) -> None:
        self.backend.close()

    # ------------------------------------------------------------------
    def _event(
        self, fingerprint: str, event: str, at: Optional[float], **fields: object
    ) -> Dict[str, object]:
        record: Dict[str, object] = {
            "schema_version": QUEUE_SCHEMA_VERSION,
            "fingerprint": str(fingerprint),
            "event": event,
            "at_unix": float(time.time() if at is None else at),
        }
        record.update(fields)
        return validate_queue_record(record)

    def _fold(self) -> Dict[str, JobView]:
        """Every job's view, folded over the whole event log."""
        return _fold_events(self.backend.history())

    def _fold_one(self, fingerprint: str) -> Optional[JobView]:
        """One job's view, folded over that job's events alone.

        The fold never lets one job's events touch another job's view,
        so this equals ``self._fold().get(fingerprint)``.  Like the full
        fold, it is safe inside this backend's transaction: the JSONL
        driver's history takes no lock, and the SQLite driver reads on
        another pooled connection that sees all committed events, not
        the transaction's own appends (WAL readers never block on the
        write lock we hold).
        """
        fingerprint = str(fingerprint)
        return _fold_events(self.backend.history(fingerprint)).get(fingerprint)

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: CampaignSpec,
        pool: Optional[str] = None,
        store: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Tuple[JobView, bool]:
        """Enqueue a campaign spec; returns ``(view, created)``.

        Submission is idempotent by content: a spec whose fingerprint is
        already queued (in any state) is not re-enqueued — the existing
        job's view is returned with ``created=False``, which is how two
        users submitting overlapping work deduplicate onto one result.
        """
        fingerprint = spec.fingerprint()
        with self.backend.transaction() as txn:
            # The submit event is always a job's first event, so the
            # first-write-wins view is exactly "has this job been
            # submitted" — no full fold needed for the dedupe check.
            if txn.get(fingerprint) is None:
                store_uri = store or default_job_store_uri(
                    self.backend.uri, spec.name, fingerprint
                )
                txn.append(
                    self._event(
                        fingerprint,
                        "submit",
                        now,
                        spec=spec.as_dict(),
                        store=str(store_uri),
                        pool=(None if pool is None else str(pool)),
                    )
                )
                created = True
            else:
                created = False
        view = self.job(fingerprint)
        assert view is not None
        return view, created

    def job(self, fingerprint: str) -> Optional[JobView]:
        """Current folded view of one job (``None`` when unknown)."""
        return self._fold_one(fingerprint)

    def jobs(self) -> List[JobView]:
        """All jobs, in submission order."""
        views = list(self._fold().values())
        views.sort(key=lambda v: (v.submitted_unix, v.fingerprint))
        return views

    def require(self, fingerprint: str) -> JobView:
        """Like :meth:`job` but raises :class:`JobNotFound`."""
        view = self.job(fingerprint)
        if view is None:
            raise JobNotFound(f"no job with fingerprint {fingerprint!r}")
        return view

    # ------------------------------------------------------------------
    def claim(
        self,
        worker: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> Optional[JobView]:
        """Lease the oldest claimable job to ``worker`` (``None`` when idle).

        Runs inside the store transaction: the fold and the lease append
        are one critical section, so exactly one of N racing workers
        wins any given job.  A leased job whose heartbeat deadline has
        passed is claimable again (the previous worker is presumed
        dead); its lease count grows by one.
        """
        if lease_seconds <= 0:
            raise ServiceError(f"lease_seconds must be positive, got {lease_seconds}")
        at = float(time.time() if now is None else now)
        with self.backend.transaction() as txn:
            # The one mutation that must see every job: the oldest
            # claimable one wins.  history() is safe to call while the
            # transaction is held (see _fold_one).
            views = sorted(
                self._fold().values(),
                key=lambda v: (v.submitted_unix, v.fingerprint),
            )
            for view in views:
                if view.claimable(at):
                    txn.append(
                        self._event(
                            view.fingerprint,
                            "lease",
                            at,
                            worker=str(worker),
                            deadline_unix=at + float(lease_seconds),
                        )
                    )
                    view.state = "leased"
                    view.worker = str(worker)
                    view.deadline_unix = at + float(lease_seconds)
                    view.attempts += 1
                    return view
        return None

    def heartbeat(
        self,
        fingerprint: str,
        worker: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> JobView:
        """Extend ``worker``'s lease on a job by ``lease_seconds``.

        Raises :class:`ServiceError` when the worker no longer holds the
        lease (expired and re-leased elsewhere, or the job reached a
        terminal state) — the caller should stop working on the job.
        """
        at = float(time.time() if now is None else now)
        with self.backend.transaction() as txn:
            view = self._fold_one(fingerprint)
            if view is None:
                raise JobNotFound(f"no job with fingerprint {fingerprint!r}")
            if view.state != "leased" or view.worker != str(worker):
                raise ServiceError(
                    f"worker {worker!r} does not hold the lease on job "
                    f"{fingerprint!r} (state={view.state!r}, holder={view.worker!r})"
                )
            txn.append(
                self._event(
                    str(fingerprint),
                    "heartbeat",
                    at,
                    worker=str(worker),
                    deadline_unix=at + float(lease_seconds),
                )
            )
            view.deadline_unix = at + float(lease_seconds)
            return view

    def complete(
        self, fingerprint: str, worker: str, now: Optional[float] = None
    ) -> JobView:
        """Mark a job done (idempotent).

        Any worker may complete a job: results live in the job's own
        checkpointed store and are deterministic, so a late completion
        from a worker whose lease was stolen reports the same truth as
        the current holder's.  Completing an already-done job is a
        no-op.
        """
        at = float(time.time() if now is None else now)
        with self.backend.transaction() as txn:
            view = self._fold_one(fingerprint)
            if view is None:
                raise JobNotFound(f"no job with fingerprint {fingerprint!r}")
            if view.state != "done":
                txn.append(
                    self._event(str(fingerprint), "complete", at, worker=str(worker))
                )
                view.state = "done"
                view.worker = str(worker)
                view.error = None
                view.finished_unix = at
        return view

    def fail(
        self,
        fingerprint: str,
        worker: str,
        error: str,
        now: Optional[float] = None,
    ) -> JobView:
        """Mark a job failed (no-op when already terminal)."""
        at = float(time.time() if now is None else now)
        with self.backend.transaction() as txn:
            view = self._fold_one(fingerprint)
            if view is None:
                raise JobNotFound(f"no job with fingerprint {fingerprint!r}")
            if view.state not in ("done", "failed"):
                txn.append(
                    self._event(
                        str(fingerprint),
                        "fail",
                        at,
                        worker=str(worker),
                        error=str(error),
                    )
                )
                view.state = "failed"
                view.worker = str(worker)
                view.error = str(error)
                view.finished_unix = at
        return view

    # ------------------------------------------------------------------
    def depth(self, now: Optional[float] = None) -> QueueDepth:
        """Counts of jobs per state (expired leases counted separately)."""
        at = float(time.time() if now is None else now)
        depth = QueueDepth()
        for view in self._fold().values():
            if view.state == "leased" and view.claimable(at):
                depth.expired += 1
            elif view.state == "queued":
                depth.queued += 1
            elif view.state == "leased":
                depth.leased += 1
            elif view.state == "done":
                depth.done += 1
            else:
                depth.failed += 1
        return depth

    def refresh_depth_gauges(self, now: Optional[float] = None) -> QueueDepth:
        """Publish the queue depth to the obs gauge surface.

        Gauges ``service.queue.depth.<state>`` feed the ``/metrics``
        endpoint, which calls this on each scrape.  Queue mutations do
        not refresh them: that would fold the whole event log once per
        submit, claim, complete and fail, for values only a scrape reads.
        """
        from repro.obs import get_registry

        depth = self.depth(now)
        registry = get_registry()
        for state, value in depth.as_dict().items():
            registry.gauge(f"service.queue.depth.{state}").set(value)
        return depth


def spec_from_payload(payload: Dict[str, object]) -> CampaignSpec:
    """Build a spec from a submit payload: ``{"name": ...}`` or ``{"spec": {...}}``.

    The two submission forms the API and ``repro submit`` share: a
    built-in campaign by name, or a full inline spec object.
    """
    if not isinstance(payload, dict):
        raise ServiceError("submit payload must be a JSON object")
    has_name = bool(isinstance(payload.get("name"), str) and payload.get("name"))
    has_spec = isinstance(payload.get("spec"), dict)
    if has_name == has_spec:
        raise ServiceError("submit payload needs exactly one of 'name' or 'spec'")
    from repro.campaign.spec import get_spec

    try:
        if has_name:
            return get_spec(str(payload["name"]))
        return CampaignSpec.from_dict(dict(payload["spec"]))
    except CampaignError as error:
        raise ServiceError(str(error)) from None


__all__ = [
    "JOB_EVENTS",
    "JOB_STATES",
    "QUEUE_SCHEMA_VERSION",
    "JobNotFound",
    "JobQueue",
    "JobView",
    "QueueDepth",
    "ServiceError",
    "default_job_store_uri",
    "spec_from_payload",
    "validate_queue_record",
]
