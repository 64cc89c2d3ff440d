"""Queue lease semantics, on both store drivers.

The load-bearing tests are the concurrency ones: N threads hammering
:meth:`JobQueue.claim` on one queue must hand out **exactly one** lease
per job, an expired heartbeat must make the job claimable again, and
completion must be idempotent — the invariants the whole
crash-recovery story rests on.
"""

from __future__ import annotations

import tempfile
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import (
    JOB_EVENTS,
    JOB_STATES,
    QUEUE_SCHEMA_VERSION,
    JobNotFound,
    JobQueue,
    ServiceError,
    default_job_store_uri,
    validate_queue_record,
)
from repro.service.queue import _fold_events, spec_from_payload
from repro.store import BACKENDS, parse_store_uri

from tests.service.conftest import make_tiny_spec


def submit_event(fingerprint: str, at: float = 1.0, **fields):
    record = {
        "schema_version": QUEUE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "event": "submit",
        "at_unix": at,
        "spec": {"name": "x"},
        "store": "jsonl:/tmp/x.jsonl",
    }
    record.update(fields)
    return record


class TestSubmit:
    def test_submit_creates_then_dedupes(self, queue, tiny_spec):
        view, created = queue.submit(tiny_spec, now=1.0)
        assert created
        assert view.state == "queued"
        assert view.fingerprint == tiny_spec.fingerprint()
        assert view.name == "tiny"
        assert view.submitted_unix == 1.0

        again, created = queue.submit(tiny_spec, now=2.0)
        assert not created
        assert again.fingerprint == view.fingerprint
        assert again.submitted_unix == 1.0  # first submit wins
        assert len(queue.jobs()) == 1

    def test_submit_records_store_and_pool(self, queue, tiny_spec, tmp_path):
        pool = f"jsonl:{tmp_path / 'pool.jsonl'}"
        store = f"jsonl:{tmp_path / 'results.jsonl'}"
        view, _ = queue.submit(tiny_spec, pool=pool, store=store)
        assert view.pool == pool
        assert view.store == store

    def test_submit_derives_driver_matched_store(self, queue, queue_uri, tiny_spec):
        view, _ = queue.submit(tiny_spec)
        derived = parse_store_uri(view.store)
        assert derived.driver == parse_store_uri(queue_uri).driver
        assert tiny_spec.fingerprint() in derived.path
        assert ".jobs" in derived.path

    def test_distinct_specs_are_distinct_jobs(self, queue):
        queue.submit(make_tiny_spec(), now=1.0)
        queue.submit(make_tiny_spec(replicates=3), now=2.0)
        views = queue.jobs()
        assert len(views) == 2
        assert views[0].submitted_unix == 1.0  # submission order

    def test_job_and_require(self, queue, tiny_spec):
        assert queue.job("feedbeef") is None
        with pytest.raises(JobNotFound):
            queue.require("feedbeef")
        view, _ = queue.submit(tiny_spec)
        assert queue.require(view.fingerprint).state == "queued"


class TestLease:
    def test_claim_empty_queue_is_none(self, queue):
        assert queue.claim("w1", 60.0) is None

    def test_claim_oldest_first(self, queue):
        a, _ = queue.submit(make_tiny_spec(), now=1.0)
        b, _ = queue.submit(make_tiny_spec(seed=6), now=2.0)
        first = queue.claim("w1", 60.0, now=3.0)
        second = queue.claim("w1", 60.0, now=3.0)
        assert first.fingerprint == a.fingerprint
        assert second.fingerprint == b.fingerprint
        assert queue.claim("w1", 60.0, now=3.0) is None

    def test_claim_sets_lease_fields(self, queue, tiny_spec):
        queue.submit(tiny_spec, now=1.0)
        view = queue.claim("w1", 30.0, now=10.0)
        assert view.state == "leased"
        assert view.worker == "w1"
        assert view.deadline_unix == 40.0
        assert view.attempts == 1

    def test_leased_job_not_reclaimable_before_deadline(self, queue, tiny_spec):
        queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        assert queue.claim("w2", 30.0, now=39.0) is None

    def test_expired_lease_is_reclaimed(self, queue, tiny_spec):
        queue.submit(tiny_spec, now=1.0)
        first = queue.claim("w1", 30.0, now=10.0)
        stolen = queue.claim("w2", 30.0, now=41.0)
        assert stolen is not None
        assert stolen.fingerprint == first.fingerprint
        assert stolen.worker == "w2"
        assert stolen.attempts == 2

    def test_invalid_lease_duration(self, queue, tiny_spec):
        queue.submit(tiny_spec)
        with pytest.raises(ServiceError):
            queue.claim("w1", 0.0)

    def test_exactly_one_lease_under_concurrency(self, queue_uri):
        """N workers hammer one queue: every job leased exactly once."""
        setup = JobQueue.open(queue_uri)
        jobs = []
        for seed in range(6):
            view, _ = setup.submit(make_tiny_spec(seed=100 + seed), now=float(seed))
            jobs.append(view.fingerprint)

        won = []
        won_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker(name: str) -> None:
            # Each thread opens its own queue handle, like a real worker
            # process would.
            q = JobQueue.open(queue_uri)
            barrier.wait()
            while True:
                view = q.claim(name, lease_seconds=3600.0, now=50.0)
                if view is None:
                    break
                with won_lock:
                    won.append((name, view.fingerprint))

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        leased = [fp for _, fp in won]
        assert sorted(leased) == sorted(jobs)  # each job exactly once
        for fp in jobs:
            view = setup.job(fp)
            assert view.attempts == 1
            assert view.state == "leased"


class TestHeartbeat:
    def test_heartbeat_extends_deadline(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        extended = queue.heartbeat(view.fingerprint, "w1", 30.0, now=20.0)
        assert extended.deadline_unix == 50.0
        # The extension holds off a rival past the original deadline.
        assert queue.claim("w2", 30.0, now=45.0) is None

    def test_heartbeat_from_non_holder_raises(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        with pytest.raises(ServiceError):
            queue.heartbeat(view.fingerprint, "w2", 30.0, now=20.0)

    def test_heartbeat_after_steal_raises(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        queue.claim("w2", 30.0, now=41.0)
        with pytest.raises(ServiceError):
            queue.heartbeat(view.fingerprint, "w1", 30.0, now=42.0)

    def test_heartbeat_on_terminal_job_raises(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        queue.complete(view.fingerprint, "w1", now=20.0)
        with pytest.raises(ServiceError):
            queue.heartbeat(view.fingerprint, "w1", 30.0, now=21.0)

    def test_heartbeat_unknown_job(self, queue):
        with pytest.raises(JobNotFound):
            queue.heartbeat("feedbeef", "w1", 30.0)


class TestTerminal:
    def test_complete_is_idempotent(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        done = queue.complete(view.fingerprint, "w1", now=20.0)
        assert done.state == "done"
        assert done.finished_unix == 20.0
        # A late completion (lease stolen, rerun elsewhere) is a no-op.
        again = queue.complete(view.fingerprint, "w2", now=30.0)
        assert again.state == "done"
        events = [r["event"] for r in queue.backend.history()]
        assert events.count("complete") == 1

    def test_done_job_never_reclaimed(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        queue.complete(view.fingerprint, "w1", now=20.0)
        assert queue.claim("w2", 30.0, now=9999.0) is None

    def test_fail_records_error(self, queue, tiny_spec):
        view, _ = queue.submit(tiny_spec, now=1.0)
        queue.claim("w1", 30.0, now=10.0)
        failed = queue.fail(view.fingerprint, "w1", "solver exploded", now=20.0)
        assert failed.state == "failed"
        assert failed.error == "solver exploded"
        # fail is a no-op on terminal jobs too.
        queue.fail(view.fingerprint, "w2", "late duplicate", now=30.0)
        assert queue.job(view.fingerprint).error == "solver exploded"

    def test_complete_concurrent_hammer_single_event(self, queue_uri, tiny_spec):
        """All racers may complete; exactly one complete event lands."""
        setup = JobQueue.open(queue_uri)
        view, _ = setup.submit(tiny_spec, now=1.0)
        setup.claim("w0", 3600.0, now=2.0)
        barrier = threading.Barrier(6)

        def completer(name: str) -> None:
            q = JobQueue.open(queue_uri)
            barrier.wait()
            q.complete(view.fingerprint, name, now=10.0)

        threads = [
            threading.Thread(target=completer, args=(f"w{i}",)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        events = [r["event"] for r in setup.backend.history()]
        assert events.count("complete") == 1
        assert setup.job(view.fingerprint).state == "done"


class TestDepth:
    def test_depth_counts_states(self, queue):
        specs = [make_tiny_spec(seed=200 + i) for i in range(5)]
        fps = [queue.submit(s, now=1.0)[0].fingerprint for s in specs]
        queue.claim("w1", 30.0, now=10.0)   # fps[0] leased, live
        queue.claim("w2", 5.0, now=10.0)    # fps[1] leased, expires at 15
        queue.claim("w3", 30.0, now=10.0)   # fps[2] -> done
        queue.complete(fps[2], "w3", now=12.0)
        queue.claim("w4", 30.0, now=10.0)   # fps[3] -> failed
        queue.fail(fps[3], "w4", "boom", now=12.0)

        depth = queue.depth(now=20.0)
        assert depth.queued == 1
        assert depth.leased == 1
        assert depth.expired == 1
        assert depth.done == 1
        assert depth.failed == 1
        assert depth.claimable == 2
        assert depth.total == 5

    def test_depth_gauges_published(self, queue, tiny_spec):
        from repro.obs import get_registry

        queue.submit(tiny_spec, now=1.0)
        depth = queue.refresh_depth_gauges(now=2.0)
        assert depth.queued == 1
        snapshot = get_registry().snapshot()
        assert snapshot["gauges"]["service.queue.depth.queued"] == 1
        assert snapshot["gauges"]["service.queue.depth.total"] == 1


_FOLD_JOBS = ("f1", "f2", "f3")
_FOLD_WORKERS = ("w1", "w2")


@st.composite
def event_logs(draw):
    """Random queue event logs over three jobs and two workers.

    Kinds and jobs are drawn independently, so a log holds resubmits,
    leases of leased and terminal jobs, heartbeats from holders and
    non-holders, duplicate completes and fails, and orphan events that
    come before their job's submit or belong to a job never submitted.
    """
    events = []
    for index in range(draw(st.integers(0, 30))):
        fingerprint = draw(st.sampled_from(_FOLD_JOBS))
        kind = draw(st.sampled_from(JOB_EVENTS))
        event = {
            "schema_version": QUEUE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "event": kind,
            "at_unix": float(index),
        }
        if kind == "submit":
            event["spec"] = {"name": fingerprint, "seed": draw(st.integers(0, 2))}
            event["store"] = f"jsonl:{fingerprint}-{draw(st.integers(0, 1))}.jsonl"
            event["pool"] = draw(st.sampled_from([None, "jsonl:pool.jsonl"]))
        elif kind in ("lease", "heartbeat"):
            event["worker"] = draw(st.sampled_from(_FOLD_WORKERS))
            event["deadline_unix"] = float(index + draw(st.integers(1, 5)))
        else:
            event["worker"] = draw(st.sampled_from(_FOLD_WORKERS + ("",)))
            if kind == "fail":
                event["error"] = draw(st.sampled_from(["boom", "bust"]))
        events.append(validate_queue_record(event))
    return events


class TestFoldScope:
    """Reading or changing one job folds that job's events alone."""

    @pytest.mark.parametrize("driver", sorted(BACKENDS))
    @given(events=event_logs())
    def test_one_jobs_events_fold_to_its_full_fold_view(self, driver, events):
        with tempfile.TemporaryDirectory() as directory:
            queue = JobQueue.open(f"{driver}:{directory}/queue.{driver}")
            queue.backend.replace_all(events)
            full = _fold_events(queue.backend.history())
            for fingerprint in _FOLD_JOBS:
                own = _fold_events(queue.backend.history(fingerprint)).get(fingerprint)
                assert own == full.get(fingerprint)
                assert queue.job(fingerprint) == own

    @pytest.fixture
    def history_calls(self, queue, monkeypatch):
        """The fingerprint argument of every ``backend.history`` call."""
        calls = []
        history = queue.backend.history

        def counted(fingerprint=None):
            calls.append(fingerprint)
            return history(fingerprint)

        monkeypatch.setattr(queue.backend, "history", counted)
        return calls

    def test_only_claim_jobs_and_depth_fold_the_whole_log(self, queue, history_calls):
        def calls_of(operation):
            history_calls.clear()
            operation()
            return list(history_calls)

        first = make_tiny_spec(seed=300)
        second = make_tiny_spec(seed=301)
        fp, other = first.fingerprint(), second.fingerprint()
        assert calls_of(lambda: queue.submit(first, now=1.0)) == [fp]
        assert calls_of(lambda: queue.submit(second, now=2.0)) == [other]
        assert calls_of(lambda: queue.submit(first, now=3.0)) == [fp]  # dedupe
        assert calls_of(lambda: queue.job(fp)) == [fp]
        assert calls_of(lambda: queue.require(fp)) == [fp]
        assert calls_of(lambda: queue.claim("w1", 30.0, now=10.0)) == [None]
        assert calls_of(lambda: queue.claim("w2", 30.0, now=10.0)) == [None]
        assert calls_of(lambda: queue.heartbeat(fp, "w1", 30.0, now=11.0)) == [fp]
        assert calls_of(lambda: queue.complete(fp, "w1", now=12.0)) == [fp]
        assert calls_of(lambda: queue.fail(other, "w2", "boom", now=13.0)) == [other]
        assert calls_of(queue.jobs) == [None]
        assert calls_of(queue.depth) == [None]
        assert calls_of(lambda: queue.claim("w1", 30.0, now=20.0)) == [None]  # idle


class TestRecords:
    def test_round_trip_valid_events(self):
        assert validate_queue_record(submit_event("ab12"))["event"] == "submit"
        for state in JOB_STATES:
            assert state in ("queued", "leased", "done", "failed")
        assert JOB_EVENTS[0] == "submit"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("schema_version"),
            lambda r: r.update(schema_version=QUEUE_SCHEMA_VERSION + 1),
            lambda r: r.pop("fingerprint"),
            lambda r: r.update(event="explode"),
            lambda r: r.pop("at_unix"),
            lambda r: r.pop("spec"),
            lambda r: r.pop("store"),
        ],
    )
    def test_rejects_malformed_records(self, mutate):
        record = submit_event("ab12")
        mutate(record)
        with pytest.raises(ServiceError):
            validate_queue_record(record)

    def test_rejects_lease_without_worker(self):
        record = submit_event("ab12", event="lease", deadline_unix=5.0)
        del record["spec"], record["store"]
        with pytest.raises(ServiceError):
            validate_queue_record(record)

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError):
            validate_queue_record(["not", "a", "dict"])

    def test_fold_tolerates_orphan_events(self, queue, tiny_spec):
        # An event whose submit record is gone (truncated store) folds
        # to nothing instead of raising.
        queue.backend.append(
            {
                "schema_version": QUEUE_SCHEMA_VERSION,
                "fingerprint": "0rphan",
                "event": "complete",
                "at_unix": 1.0,
                "worker": "w1",
            }
        )
        view, _ = queue.submit(tiny_spec, now=2.0)
        assert [v.fingerprint for v in queue.jobs()] == [view.fingerprint]

    def test_queue_rejects_corrupt_store_record(self, queue):
        with pytest.raises(ServiceError):
            queue.backend.append({"fingerprint": "x", "not": "an event"})


class TestHelpers:
    def test_default_job_store_uri_sanitises_name(self):
        uri = default_job_store_uri("jsonl:/tmp/q.jsonl", "a b/c", "deadbeef")
        parsed = parse_store_uri(uri)
        assert parsed.driver == "jsonl"
        assert "/q.jobs/" in parsed.path
        assert parsed.path.endswith("JOB_a-b-c-deadbeef.jsonl")

    def test_default_job_store_uri_keeps_sqlite_driver(self):
        uri = default_job_store_uri("sqlite:/tmp/q.sqlite", "tiny", "deadbeef")
        assert uri.startswith("sqlite:")
        assert uri.endswith(".sqlite")

    def test_spec_from_payload_by_name(self):
        spec = spec_from_payload({"name": "smoke"})
        assert spec.name == "smoke"

    def test_spec_from_payload_inline(self, tiny_spec):
        spec = spec_from_payload({"spec": tiny_spec.as_dict()})
        assert spec.fingerprint() == tiny_spec.fingerprint()

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"name": "smoke", "spec": {"name": "x"}},
            {"name": ""},
            {"spec": "not-a-dict"},
            "not-a-dict",
        ],
    )
    def test_spec_from_payload_rejects(self, payload):
        with pytest.raises(ServiceError):
            spec_from_payload(payload)

    def test_spec_from_payload_unknown_name(self):
        with pytest.raises(ServiceError):
            spec_from_payload({"name": "no-such-campaign"})
