"""Tests for progress reporting (LogProgress) and EngineStats."""

import io
import sys

from repro.core.results import BufferPlan, FlowResult, StepArtifacts
from repro.engine.progress import (
    PHASE_ORDER,
    EngineStats,
    LogProgress,
    NullProgress,
)


class TestLogProgressLines:
    def make(self, **kwargs):
        stream = io.StringIO()
        kwargs.setdefault("min_interval", 0.0)
        return LogProgress(stream=stream, **kwargs), stream

    def test_default_tag_and_prefix_tag(self):
        progress, stream = self.make()
        progress.start("step1_train", 10)
        assert stream.getvalue() == "[engine] step1_train: 0/10 samples\n"

        progress, stream = self.make(prefix="s9234@0.05")
        progress.finish("yield_eval", 5, 1.234)
        line = stream.getvalue()
        assert line.startswith("[engine:s9234@0.05] yield_eval: done")
        assert "5 samples in 1.23 s" in line

    def test_advance_carries_eta_only_mid_phase(self):
        progress, stream = self.make()
        progress.start("p", 10)
        progress.advance("p", 5, 10)
        progress.advance("p", 10, 10)
        lines = stream.getvalue().splitlines()
        assert "ETA" in lines[1] and lines[1].endswith("s)")
        assert "5/10" in lines[1]
        # A finished phase needs no estimate; done == total drops it.
        assert "ETA" not in lines[2]

    def test_eta_shrinks_as_work_completes(self):
        progress, stream = self.make()
        progress.start("p", 100)
        progress._phase_start["p"] = progress._phase_start["p"] - 1.0
        progress.advance("p", 50, 100)
        progress._phase_start["p"] = progress._phase_start["p"] - 1.0
        progress.advance("p", 90, 100)
        first, second = [
            float(line.split("ETA ")[1].split(" ")[0])
            for line in stream.getvalue().splitlines()[1:]
        ]
        assert second < first


class TestLogProgressThrottle:
    def test_throttle_suppresses_fast_updates(self):
        stream = io.StringIO()
        progress = LogProgress(stream=stream, min_interval=60.0)
        progress.start("p", 10)
        for done in (1, 2, 3):
            progress.advance("p", done, 10)
        assert stream.getvalue().count("\n") == 1  # only the start line

    def test_final_outstanding_task_bypasses_throttle(self):
        stream = io.StringIO()
        progress = LogProgress(stream=stream, min_interval=60.0)
        progress.start("p", 10)
        progress.advance("p", 8, 10)   # throttled
        progress.advance("p", 9, 10)   # done == total - 1: must emit
        progress.advance("p", 10, 10)  # done == total: must emit
        lines = stream.getvalue().splitlines()
        assert [line.split()[2] for line in lines] == ["0/10", "9/10", "10/10"]

    def test_phases_throttle_independently(self):
        stream = io.StringIO()
        progress = LogProgress(stream=stream, min_interval=60.0)
        progress.start("a", 10)
        progress.advance("a", 1, 10)  # throttled
        progress.advance("b", 1, 10)  # phase b never emitted: goes out
        assert "b: 1/10" in stream.getvalue()
        assert "a: 1/10" not in stream.getvalue()


class TestLogProgressStream:
    def test_stderr_resolved_at_emit_time(self, monkeypatch):
        progress = LogProgress()  # constructed before the stream swap
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        progress.start("p", 4)
        assert "[engine] p: 0/4 samples" in captured.getvalue()

    def test_explicit_stream_wins(self, monkeypatch):
        explicit = io.StringIO()
        leaked = io.StringIO()
        monkeypatch.setattr(sys, "stderr", leaked)
        LogProgress(stream=explicit).finish("p", 4, 0.1)
        assert "done" in explicit.getvalue()
        assert leaked.getvalue() == ""

    def test_null_progress_ignores_everything(self):
        progress = NullProgress()
        progress.start("p", 1)
        progress.advance("p", 1, 1)
        progress.finish("p", 1, 0.0)


def flow_phase_seconds(stats):
    """``FlowResult.phase_seconds()`` of a flow that recorded ``stats``."""
    result = FlowResult(
        plan=BufferPlan(),
        target_period=1.0,
        mu_period=1.0,
        sigma_period=0.0,
        original_yield=1.0,
        improved_yield=1.0,
        step1=StepArtifacts(),
        step2=StepArtifacts(),
        engine_stats=stats.as_dict(),
    )
    return result.phase_seconds()


class TestEngineStats:
    def test_record_accumulates(self):
        stats = EngineStats()
        stats.record("step1_train", n_tasks=5, seconds=1.0)
        stats.record("step1_train", n_tasks=3, n_cache_hits=2, seconds=0.5)
        phase = stats.phases["step1_train"]
        assert phase.n_tasks == 8 and phase.n_cache_hits == 2
        assert phase.seconds == 1.5

    def test_phase_seconds_zero_fills_canonical_order(self):
        stats = EngineStats()
        stats.record("yield_eval", seconds=2.0)
        seconds = flow_phase_seconds(stats)
        assert list(seconds) == list(PHASE_ORDER)
        assert seconds["yield_eval"] == 2.0
        assert seconds["step2_interim"] == 0.0

    def test_phase_seconds_appends_ad_hoc_phases_after_canon(self):
        stats = EngineStats()
        stats.record("warmup", seconds=0.25)
        stats.record("step1_train", seconds=1.0)
        stats.record("custom_sweep", seconds=0.5)
        seconds = flow_phase_seconds(stats)
        assert list(seconds) == list(PHASE_ORDER) + ["warmup", "custom_sweep"]
        assert seconds["warmup"] == 0.25 and seconds["custom_sweep"] == 0.5
