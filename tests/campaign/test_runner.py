"""Campaign runner: execution, resume semantics, sharding, baselines.

The load-bearing test is :class:`TestResume`: a campaign killed after N
cells (simulated by ``max_cells`` plus a partial trailing record, the
on-disk state an actual ``SIGKILL`` mid-append leaves behind) and then
resumed — possibly on a *different* executor — must

* never re-execute completed cells, and
* produce markdown/JSON reports **bit-identical** to an uninterrupted
  run's.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.campaign.report import (
    build_report,
    format_report_markdown,
)
from repro.campaign.runner import CampaignRunner, campaign_status
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.engine import shm_enabled


def spec_12_cells() -> CampaignSpec:
    """A >= 12-cell matrix that still runs in seconds (tiny budgets)."""
    return CampaignSpec(
        name="resume",
        seed=7,
        circuits=(("s9234", 0.05),),
        sigmas=(0.0, 1.0, 2.0),
        budgets=((24, 48), (32, 64)),
        replicates=2,
        baselines=("criticality", "random"),
    )


def tiny_spec(**overrides) -> CampaignSpec:
    params = {
        "name": "tiny",
        "seed": 5,
        "circuits": (("s9234", 0.05),),
        "sigmas": (0.0,),
        "budgets": ((24, 48),),
        "replicates": 2,
        "baselines": (),
    }
    params.update(overrides)
    return CampaignSpec(**params)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """One full serial run of the 12-cell spec plus its two report forms."""
    spec = spec_12_cells()
    store = CampaignStore.open(str(tmp_path_factory.mktemp("full") / "store.jsonl"))
    summary = CampaignRunner(spec, store, executor="serial").run()
    assert summary.n_run == spec.n_cells >= 12
    report = build_report(spec, store)
    return spec, store, report.to_json(), format_report_markdown(report)


class TestRunBasics:
    def test_full_run_completes_and_is_resumable_noop(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        first = CampaignRunner(spec, store, executor="serial").run()
        assert (first.n_run, first.n_remaining) == (spec.n_cells, 0)
        again = CampaignRunner(spec, store, executor="serial").run()
        assert (again.n_run, again.n_completed_before) == (0, spec.n_cells)
        status = campaign_status(spec, store)
        assert status.complete and not status.pending_cell_ids

    def test_max_cells_bounds_one_invocation(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        partial = CampaignRunner(spec, store, executor="serial", max_cells=1).run()
        assert (partial.n_run, partial.n_remaining) == (1, spec.n_cells - 1)
        assert campaign_status(spec, store).n_completed == 1

    def test_record_content_is_deterministic_fields(self, tmp_path):
        spec = tiny_spec(baselines=("every_ff",))
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        CampaignRunner(spec, store, executor="serial").run()
        for record in store.load().values():
            result = record["result"]
            assert set(result["baselines"]) == {"every_ff"}
            assert 0.0 <= result["original_yield"] <= result["baselines"]["every_ff"]["tuned_yield"] <= 1.0
            assert result["plan"]["target_period"] == result["target_period"]
            assert record["runtime_seconds"] > 0.0

    def test_sharded_runs_cover_the_matrix(self, tmp_path):
        spec = tiny_spec(sigmas=(0.0, 1.0))
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        for index in range(2):
            CampaignRunner(
                spec, store, executor="serial", shard_index=index, shard_count=2
            ).run()
        assert campaign_status(spec, store).complete

    def test_progress_lines_go_to_stderr(self, tmp_path, capsys):
        spec = tiny_spec(sigmas=(0.0,), replicates=1)
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        CampaignRunner(spec, store, executor="serial", progress=True).run()
        captured = capsys.readouterr()
        assert "[campaign]" in captured.err
        assert "[engine:s9234@0.05" in captured.err
        assert captured.out == ""

    def test_each_run_builds_its_own_designs(self, tmp_path, design_builds):
        # Without a design builder (CLI, bench, direct callers) a run
        # builds every design it needs, once, and keeps none past itself.
        spec = tiny_spec(replicates=2, design_seed=3)
        for index in range(2):
            store = CampaignStore.open(str(tmp_path / f"s{index}.jsonl"))
            CampaignRunner(spec, store, executor="serial").run()
        assert design_builds == [("s9234", 0.05, 3)] * 2

    def test_bad_max_cells_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_cells"):
            CampaignRunner(
                tiny_spec(), CampaignStore.open(str(tmp_path / "s.jsonl")), max_cells=0
            )


class TestDispatchModes:
    """Batched (gang) dispatch must be a pure wall-clock optimisation."""

    @staticmethod
    def _records(tmp_path, name, dispatch, executor="serial", jobs=None):
        spec = tiny_spec(baselines=("criticality", "random"))
        store = CampaignStore.open(str(tmp_path / f"{name}.jsonl"))
        summary = CampaignRunner(
            spec, store, executor=executor, jobs=jobs, dispatch=dispatch
        ).run()
        assert summary.n_run == spec.n_cells
        return store.load()

    def _assert_identical(self, sequential, batched):
        assert set(sequential) == set(batched)
        for fingerprint, record in sequential.items():
            other = batched[fingerprint]
            assert other["cell"] == record["cell"]
            # Everything except the wall-clock envelope is bit-identical.
            assert json.dumps(other["result"], sort_keys=True) == json.dumps(
                record["result"], sort_keys=True
            )

    def test_batched_records_bit_identical_to_sequential(self, tmp_path):
        sequential = self._records(tmp_path, "seq", "sequential")
        batched = self._records(tmp_path, "bat", "batched")
        self._assert_identical(sequential, batched)

    def test_batched_bit_identical_on_process_pool(self, tmp_path):
        sequential = self._records(tmp_path, "seq", "sequential")
        batched = self._records(tmp_path, "bat", "batched", executor="processes", jobs=2)
        self._assert_identical(sequential, batched)

    def test_batched_groups_by_compiled_fingerprint(self, tmp_path):
        spec = tiny_spec(sigmas=(0.0, 1.0), replicates=1)
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        runner = CampaignRunner(spec, store, executor="serial")
        cells = spec.cells()
        keys = {cell.cell_id: runner._group_key(cell) for cell in cells}
        # One (circuit, scale) design + one solver => a single gang.
        assert len(set(keys.values())) == 1
        assert CampaignRunner(spec, store, executor="serial").run().n_run == len(cells)

    def test_gang_dispatches_next_phase_before_peer_finishes(self, tmp_path, monkeypatch):
        """Batched dispatch is pipelined: a cell's second phase goes out
        as soon as its first drains, before its peer's first finishes."""
        from repro.engine import gang

        events = []
        dispatched = {}
        dispatch, finish = gang.PendingPhase.dispatch, gang.PendingPhase.finish

        def recording_dispatch(pending, executor):
            if id(pending) not in dispatched:
                dispatched[id(pending)] = pending  # keeps ids unique
                events.append(("dispatch", pending.context["cell"]))
            return dispatch(pending, executor)

        def recording_finish(pending):
            events.append(("finish", pending.context["cell"]))
            return finish(pending)

        monkeypatch.setattr(gang.PendingPhase, "dispatch", recording_dispatch)
        monkeypatch.setattr(gang.PendingPhase, "finish", recording_finish)
        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        assert CampaignRunner(spec, store, executor="serial").run().n_run == 2
        cell_a, cell_b = (cell.cell_id for cell in spec.cells())
        a_dispatches = [i for i, event in enumerate(events) if event == ("dispatch", cell_a)]
        b_finishes = [i for i, event in enumerate(events) if event == ("finish", cell_b)]
        assert a_dispatches[1] < b_finishes[0]

    @pytest.mark.skipif(not shm_enabled(), reason="shared memory unavailable")
    def test_each_cell_hashes_its_baseline_batch_once(self, tmp_path, monkeypatch):
        """The three baseline sweeps of a cell share one evaluation batch,
        whose matrices are hashed once to key their shared memory."""
        from repro.engine import batch as batch_module
        from repro.engine import shm as shm_module
        from repro.obs.trace import current_context

        hashes = Counter()
        original = batch_module.fingerprint_arrays

        def recording(*arrays):
            digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
            hashes[(current_context().get("cell"), digest)] += 1
            return original(*arrays)

        monkeypatch.setattr(batch_module, "fingerprint_arrays", recording)
        monkeypatch.setattr(shm_module, "SHM_MIN_BYTES", 1)  # force sharing
        spec = tiny_spec(baselines=("every_ff", "criticality", "random"))
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        runner = CampaignRunner(spec, store, executor="processes", jobs=2)
        assert runner.run().n_run == 2
        # Per cell: the training batch, the flow's evaluation batch and
        # the one baseline batch, each hashed once.
        assert sorted(cell for cell, _ in hashes) == sorted(
            [cell.cell_id for cell in spec.cells()] * 3
        )
        assert set(hashes.values()) == {1}

    def test_invalid_dispatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dispatch"):
            CampaignRunner(
                tiny_spec(),
                CampaignStore.open(str(tmp_path / "s.jsonl")),
                dispatch="eager",
            )


class TestResume:
    KILL_AFTER = 5

    def _interrupt_and_resume(self, spec, store_path, resume_executor, jobs=None):
        """Run KILL_AFTER cells, fake a kill mid-append, then resume."""
        store = CampaignStore.open(store_path)
        interrupted = CampaignRunner(
            spec, store, executor="serial", max_cells=self.KILL_AFTER
        ).run()
        assert interrupted.n_run == self.KILL_AFTER
        # A SIGKILL mid-append leaves a partial record on the final line.
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "fingerprint": "trunca')

        resumed = CampaignRunner(
            spec, store, executor=resume_executor, jobs=jobs
        ).run()
        # cell_ids_run lists exactly the cells this invocation executed
        # (pool hits and already-completed cells never appear), in both
        # dispatch modes.
        return store, resumed, list(resumed.cell_ids_run)

    @pytest.mark.parametrize(
        "resume_executor,jobs",
        [("serial", None), ("processes", 2)],
    )
    def test_killed_campaign_resumes_bit_identically(
        self, tmp_path, uninterrupted, resume_executor, jobs
    ):
        spec, _, full_json, full_markdown = uninterrupted
        store, resumed, executed = self._interrupt_and_resume(
            spec, str(tmp_path / "store.jsonl"), resume_executor, jobs
        )
        # Completed cells were skipped, pending ones ran exactly once.
        completed_first = [c.cell_id for c in spec.cells()[: self.KILL_AFTER]]
        assert resumed.n_completed_before == self.KILL_AFTER
        assert resumed.n_run == spec.n_cells - self.KILL_AFTER
        assert not set(executed) & set(completed_first)
        assert len(executed) == len(set(executed))
        # The aggregated report is byte-for-byte the uninterrupted one.
        report = build_report(spec, store)
        assert report.to_json() == full_json
        assert format_report_markdown(report) == full_markdown

    def test_resumed_store_records_match_uninterrupted(self, tmp_path, uninterrupted):
        spec, full_store, _, _ = uninterrupted
        store, _, _ = self._interrupt_and_resume(
            spec, str(tmp_path / "store.jsonl"), "serial"
        )
        full = full_store.load()
        resumed = store.load()
        assert set(resumed) == set(full)
        for fingerprint, record in resumed.items():
            # Everything except wall-clock envelope fields is identical.
            assert record["cell"] == full[fingerprint]["cell"]
            assert json.dumps(record["result"], sort_keys=True) == json.dumps(
                full[fingerprint]["result"], sort_keys=True
            )


class TestStatusRobustness:
    """``campaign_status`` must answer on stores a live worker owns.

    The service's polling endpoint (and ``repro campaign status``) read
    stores that another process may be appending to right now; a torn,
    non-newline-terminated tail or an envelope field an older writer
    omitted must degrade gracefully, never raise.
    """

    def test_status_tolerates_inflight_tail(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        CampaignRunner(spec, store, executor="serial", max_cells=1).run()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "half-writ')
        status = campaign_status(spec, CampaignStore.open(store.path))
        assert status.n_completed == 1
        assert len(status.pending_cell_ids) == spec.n_cells - 1

    def test_status_cli_tolerates_inflight_tail(self, tmp_path, capsys):
        from repro.cli import main

        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        CampaignRunner(spec, store, executor="serial", max_cells=1).run()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "half-writ')
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.as_dict()))
        code = main(
            ["campaign", "status", "--spec", str(spec_path),
             "--store", store.path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_completed"] == 1

    def test_status_tolerates_missing_runtime_seconds(self, tmp_path):
        from repro.campaign.store import make_record

        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        cell = spec.cells()[0]
        record = make_record(cell, {"yield_fraction": 1.0}, 0.5)
        del record["runtime_seconds"]  # older layout / hand-ingested
        store.append(record)
        status = campaign_status(spec, store)
        assert status.n_completed == 1
        assert status.cell_seconds[cell.cell_id] == 0.0
        assert status.total_recorded_seconds == 0.0

    def test_status_races_a_live_writer(self, tmp_path):
        """Hammer status reads while a writer appends with torn tails."""
        import threading

        from repro.campaign.store import make_record

        spec = tiny_spec(sigmas=(0.0, 1.0), replicates=2)
        path = str(tmp_path / "s.jsonl")
        writer_store = CampaignStore.open(path)
        cells = spec.cells()
        stop = threading.Event()
        failures = []

        def writer() -> None:
            try:
                for cell in cells:
                    # Simulate a slow in-flight append: torn prefix
                    # first, then the completing durable record.
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write('{"fingerprint": "in-fli')
                    writer_store.append(
                        make_record(cell, {"yield_fraction": 1.0}, 0.1)
                    )
            except Exception as error:  # pragma: no cover - fail loudly
                failures.append(error)
            finally:
                stop.set()

        thread = threading.Thread(target=writer)
        thread.start()
        counts = []
        try:
            while not stop.is_set():
                status = campaign_status(spec, CampaignStore.open(path))
                counts.append(status.n_completed)
        finally:
            thread.join(timeout=60.0)
        assert not failures
        assert not thread.is_alive()
        assert counts == sorted(counts)  # completion only ever grows
        final = campaign_status(spec, CampaignStore.open(path))
        assert final.n_completed == len(cells)


class TestProgressCallback:
    """The job-level ``on_progress`` hook the worker daemon heartbeats from."""

    def test_on_progress_fires_per_committed_cell(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        ticks = []
        CampaignRunner(
            spec, store, executor="serial", on_progress=ticks.append
        ).run()
        assert len(ticks) == spec.n_cells
        assert [t.position for t in ticks] == list(range(1, spec.n_cells + 1))
        assert all(t.total == spec.n_cells for t in ticks)
        assert all(t.source == "run" for t in ticks)
        assert all(t.seconds > 0.0 for t in ticks)
        committed = {t.fingerprint for t in ticks}
        assert committed == set(store.load())
        as_dict = ticks[0].as_dict()
        assert as_dict["cell_id"] == ticks[0].cell_id
        assert as_dict["source"] == "run"

    def test_on_progress_reports_pool_hits(self, tmp_path):
        from repro.campaign.pool import ResultPool

        spec = tiny_spec()
        pool = ResultPool(str(tmp_path / "pool.jsonl"))
        first = CampaignStore.open(str(tmp_path / "a.jsonl"))
        CampaignRunner(spec, first, executor="serial", pool=pool).run()

        ticks = []
        second = CampaignStore.open(str(tmp_path / "b.jsonl"))
        summary = CampaignRunner(
            spec, second, executor="serial", pool=pool, on_progress=ticks.append
        ).run()
        assert summary.n_pool_reused == spec.n_cells
        assert len(ticks) == spec.n_cells
        assert all(t.source == "pool" for t in ticks)
        assert all(t.seconds == 0.0 for t in ticks)
