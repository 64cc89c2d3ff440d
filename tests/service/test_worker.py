"""Worker daemon: lease, run through CampaignRunner, heartbeat, recover.

The crash-recovery test simulates a SIGKILLed worker with a dead lease
(claimed, never heartbeated, expired) and asserts the next worker
resumes the job to a report byte-identical to an uninterrupted run —
the same invariant the nightly kill-and-resume CI leg checks end to
end with real processes.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.report import build_report, format_report
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import CampaignStore
from repro.cli import main
from repro.obs import load_trace, span_events
from repro.service import CampaignWorker, JobQueue, ServiceError
from repro.service import worker as worker_module
from repro.service.queue import QUEUE_SCHEMA_VERSION
from repro.service.worker import _Heartbeat, default_worker_id

from tests.service.conftest import make_tiny_spec


def test_default_worker_id_has_host_and_pid():
    import os

    worker = default_worker_id()
    assert worker.endswith(f":{os.getpid()}")


def test_worker_rejects_bad_parameters(queue):
    with pytest.raises(ServiceError):
        CampaignWorker(queue, lease_seconds=0.0)
    with pytest.raises(ServiceError):
        CampaignWorker(queue, poll_seconds=-1.0)


def test_worker_runs_job_end_to_end(queue, tiny_spec):
    view, _ = queue.submit(tiny_spec)
    worker = CampaignWorker(queue, worker_id="w1", executor="serial")
    summary = worker.run(exit_when_idle=True)

    assert summary.n_jobs == 1
    assert summary.n_done == 1
    assert summary.n_failed == 0
    assert summary.job_fingerprints == [view.fingerprint]

    done = queue.job(view.fingerprint)
    assert done.state == "done"
    assert done.worker == "w1"
    store = CampaignStore.open(done.store)
    assert len(store.load()) == len(tiny_spec.cells())


def test_worker_resumes_dead_lease_bit_identically(queue, tiny_spec, tmp_path):
    view, _ = queue.submit(tiny_spec)
    # A worker that died right after claiming: lease expires, no cells.
    assert queue.claim("dead-worker", lease_seconds=0.05) is not None
    time.sleep(0.1)

    worker = CampaignWorker(
        queue, worker_id="w2", executor="serial", poll_seconds=0.05
    )
    summary = worker.run(exit_when_idle=True)
    assert summary.n_done == 1

    done = queue.job(view.fingerprint)
    assert done.state == "done"
    assert done.attempts == 2  # dead worker's lease plus the rescue

    # The rescued run reports byte-identically to an uninterrupted one.
    direct_store = CampaignStore.open(str(tmp_path / "direct.jsonl"))
    CampaignRunner(tiny_spec, direct_store, executor="serial").run()
    for fmt in ("markdown", "json"):
        rescued = format_report(
            build_report(tiny_spec, CampaignStore.open(done.store)), fmt
        )
        direct = format_report(build_report(tiny_spec, direct_store), fmt)
        assert rescued == direct


def test_worker_marks_unrunnable_job_failed(queue):
    # A submit event whose spec payload no longer deserialises (e.g.
    # written by a newer client) must fail the job, not kill the daemon.
    queue.backend.append(
        {
            "schema_version": QUEUE_SCHEMA_VERSION,
            "fingerprint": "badc0ffee",
            "event": "submit",
            "at_unix": 1.0,
            "spec": {"name": "broken", "circuits": [["no-such-circuit", 0.1]]},
            "store": "jsonl:/dev/null/unwritable.jsonl",
        }
    )
    worker = CampaignWorker(queue, worker_id="w1", executor="serial")
    summary = worker.run(exit_when_idle=True)
    assert summary.n_jobs == 1
    assert summary.n_failed == 1

    failed = queue.job("badc0ffee")
    assert failed.state == "failed"
    assert failed.error


def test_worker_finishes_on_first_attempt_despite_short_lease(queue, tiny_spec):
    # A lease much shorter than the campaign forces the background
    # heartbeat to carry the job; it must finish on the first attempt.
    queue.submit(tiny_spec)
    worker = CampaignWorker(
        queue, worker_id="w1", executor="serial", lease_seconds=0.4
    )
    summary = worker.run(exit_when_idle=True)
    assert summary.n_done == 1
    view = queue.jobs()[0]
    assert view.attempts == 1


def test_heartbeat_thread_extends_a_held_lease(queue, tiny_spec):
    view, _ = queue.submit(tiny_spec)
    queue.claim("w1", lease_seconds=0.2)
    with _Heartbeat(queue, view.fingerprint, "w1", 0.2) as heartbeat:
        deadline = time.monotonic() + 5.0
        while heartbeat.n_beats < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert heartbeat.n_beats >= 2
        assert heartbeat.lost is None
    events = [r["event"] for r in queue.backend.history()]
    assert events.count("heartbeat") >= 2
    held = queue.job(view.fingerprint)
    assert held.state == "leased"
    assert held.worker == "w1"
    assert held.attempts == 1


def test_exit_when_idle_waits_out_live_lease(queue, tiny_spec):
    """Drain semantics: an unexpired foreign lease must not end the loop."""
    view, _ = queue.submit(tiny_spec)
    queue.claim("other-worker", lease_seconds=0.4)

    worker = CampaignWorker(
        queue, worker_id="w2", executor="serial", poll_seconds=0.05
    )
    start = time.monotonic()
    summary = worker.run(exit_when_idle=True)
    # It waited for the foreign lease to expire, then rescued the job.
    assert time.monotonic() - start >= 0.3
    assert summary.n_done == 1
    assert queue.job(view.fingerprint).state == "done"


def test_run_respects_max_jobs(queue):
    for seed in range(3):
        queue.submit(make_tiny_spec(seed=300 + seed))
    worker = CampaignWorker(queue, worker_id="w1", executor="serial")
    summary = worker.run(max_jobs=1)
    assert summary.n_jobs == 1
    depth = queue.depth()
    assert depth.done == 1
    assert depth.queued == 2


def test_run_once_idle_returns_none(queue):
    worker = CampaignWorker(queue, worker_id="w1")
    assert worker.run_once() is None


def test_heartbeat_thread_reports_lost_lease(queue, tiny_spec):
    view, _ = queue.submit(tiny_spec)
    queue.claim("w1", lease_seconds=0.1)
    time.sleep(0.15)
    queue.claim("thief", lease_seconds=3600.0)  # re-lease after expiry

    from repro.service.worker import LeaseLost

    with _Heartbeat(queue, view.fingerprint, "w1", 0.1) as heartbeat:
        deadline = time.monotonic() + 5.0
        while heartbeat.lost is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert heartbeat.lost is not None
        with pytest.raises(LeaseLost):
            heartbeat.check()


# ----------------------------------------------------------------------
# Design reuse across jobs
# ----------------------------------------------------------------------
@pytest.fixture
def jsonl_queue(tmp_path):
    """One driver is enough here: design reuse does not touch the queue."""
    queue = JobQueue.open(f"jsonl:{tmp_path / 'queue.jsonl'}")
    yield queue
    queue.close()


def one_cell_spec(seed: int, design_seed: int = 3, **overrides):
    """A one-cell job; jobs of equal ``design_seed`` share one design."""
    params = {"seed": seed, "design_seed": design_seed, "replicates": 1,
              "budgets": ((16, 32),)}
    params.update(overrides)
    return make_tiny_spec(**params)


def drain(queue, design_seeds):
    """Submit one job per design seed, in this claim order, and drain them."""
    for index, design_seed in enumerate(design_seeds):
        queue.submit(one_cell_spec(400 + index, design_seed), now=float(index))
    summary = CampaignWorker(queue, worker_id="w1", executor="serial").run(
        exit_when_idle=True
    )
    assert summary.n_done == len(design_seeds)


def test_worker_builds_a_shared_design_once(jsonl_queue, design_builds):
    drain(jsonl_queue, [3, 3, 3])
    assert design_builds == [("s9234", 0.05, 3)]


def test_job_on_another_design_seed_builds_its_own_design(jsonl_queue, design_builds):
    drain(jsonl_queue, [3, 4, 3])
    assert design_builds == [("s9234", 0.05, 3), ("s9234", 0.05, 4)]


def test_least_recently_used_design_is_rebuilt_past_the_bound(
    jsonl_queue, design_builds, monkeypatch
):
    monkeypatch.setattr(worker_module, "DESIGN_CACHE_SIZE", 2)
    # Design 5 evicts design 4, the least recently used; design 3 was
    # used just before, so it stays and only design 4 is built twice.
    drain(jsonl_queue, [3, 4, 3, 5, 3, 4])
    assert [seed for _, _, seed in design_builds] == [3, 4, 5, 4]


def test_spec_with_more_designs_than_the_bound_builds_each_once(
    jsonl_queue, design_builds, monkeypatch
):
    monkeypatch.setattr(worker_module, "DESIGN_CACHE_SIZE", 1)
    # Batched dispatch asks for every cell's design to group the cells,
    # then again to run each group: with only a one-design LRU between
    # them, the first design would be built twice.
    spec = one_cell_spec(500, circuits=(("s9234", 0.05), ("s9234", 0.06)), replicates=2)
    jsonl_queue.submit(spec)
    summary = CampaignWorker(jsonl_queue, worker_id="w1", executor="serial").run(
        exit_when_idle=True
    )
    assert summary.n_done == 1
    assert sorted(design_builds) == [("s9234", 0.05, 3), ("s9234", 0.06, 3)]


def test_traced_worker_records_one_design_build(jsonl_queue, tmp_path):
    for seed in (600, 601):
        jsonl_queue.submit(one_cell_spec(seed))
    trace = tmp_path / "work-trace.jsonl"
    code = main(["work", "--queue", jsonl_queue.uri, "--executor", "serial",
                 "--exit-when-idle", "--poll", "0.1", "--trace", str(trace)])
    assert code == 0
    names = [event["name"] for event in span_events(load_trace(str(trace)))]
    assert names.count("service.job") == 2
    assert names.count("circuit.build") == 1
    assert names.count("timing.extract") == 1
    assert names.count("timing.propagate") == 1
