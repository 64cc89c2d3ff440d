"""Traced end-to-end flow runs: the trace must validate against its
schema, agree with the engine's own wall-clock accounting, and change
nothing about the computed results — on every executor."""

import json

import pytest

from repro.core import BufferInsertionFlow, FlowConfig
from repro.obs import (
    configure_tracing,
    finalize_tracing,
    load_manifest,
    load_trace,
    span_events,
    start_run,
    finish_run,
    summarize_trace,
)

CONFIG = {"n_samples": 40, "n_eval_samples": 60, "seed": 13, "target_sigma": 1.0}


def run_flow(design, **overrides):
    return BufferInsertionFlow(design, FlowConfig(**{**CONFIG, **overrides})).run()


def result_fingerprint(result):
    """Everything the flow computed, minus wall-clock noise."""
    summary = {k: v for k, v in result.summary().items() if k != "runtime_seconds"}
    return json.dumps({"summary": summary, "lower_bounds": result.lower_bounds},
                      sort_keys=True)


@pytest.mark.parametrize("executor,jobs", [
    ("serial", 1), ("processes", 2),
])
class TestTracedFlow:
    def test_trace_validates_and_agrees_with_engine_stats(
        self, tiny_design, tmp_path, executor, jobs
    ):
        path = str(tmp_path / "t.jsonl")
        configure_tracing(path)
        result = run_flow(tiny_design, executor=executor, jobs=jobs)
        finalize_tracing()

        events = load_trace(path)  # load_trace schema-validates every event
        summary = summarize_trace(events)

        names = {event["name"] for event in span_events(events)}
        assert {"flow.run", "flow.stage", "engine.phase", "engine.chunk"} <= names

        stats_total = sum(
            stats["seconds"] for stats in result.engine_stats.values()
        )
        assert summary.total_wall_seconds == pytest.approx(
            stats_total, rel=0.05, abs=0.005
        )
        # Work is chunk time: never wildly below the phase wall clock,
        # and only above it when chunks ran concurrently.
        work = sum(row.work_seconds for row in summary.rows)
        assert work > 0.0
        if executor == "serial":
            assert work <= summary.total_wall_seconds + 0.005

    def test_tracing_changes_no_result(self, tiny_design, tmp_path, executor, jobs):
        baseline = result_fingerprint(run_flow(tiny_design, executor=executor, jobs=jobs))
        configure_tracing(str(tmp_path / "t.jsonl"))
        traced = result_fingerprint(run_flow(tiny_design, executor=executor, jobs=jobs))
        finalize_tracing()
        assert traced == baseline


class TestWorkerSpanMerge:
    def test_process_chunks_land_in_main_trace(self, tiny_design, tmp_path):
        path = str(tmp_path / "t.jsonl")
        configure_tracing(path)
        run_flow(tiny_design, executor="processes", jobs=2)
        tracer = finalize_tracing()

        events = load_trace(path)
        assert len(events) == tracer.n_events
        chunk_pids = {
            event["pid"] for event in span_events(events)
            if event["name"] == "engine.chunk"
        }
        assert chunk_pids  # chunk spans from worker processes were merged
        # Worker chunk spans carry their phase for attribution.
        for event in span_events(events):
            if event["name"] == "engine.chunk":
                assert "phase" in event["attrs"]


class TestRunLifecycle:
    def test_start_finish_writes_trace_and_valid_manifest(self, tiny_design, tmp_path):
        path = str(tmp_path / "t.jsonl")
        start_run(path)
        run_flow(tiny_design)
        outputs = finish_run(command=["insert", "--trace", path])

        assert outputs is not None
        assert outputs.trace_path == path
        assert outputs.n_events == len(load_trace(path))
        manifest = load_manifest(outputs.manifest_path)  # validates
        assert manifest["command"] == ["insert", "--trace", path]
        assert manifest["n_trace_events"] == outputs.n_events
        counters = manifest["metrics"]["counters"]
        assert counters.get("engine.pool.warm_reuses", 0) \
            + counters.get("engine.pool.cold_dispatches", 0) > 0
        assert manifest["metrics"]["histograms"]["engine.chunk.size"]["count"] > 0

    def test_finish_without_start_is_none(self):
        assert finish_run() is None
