"""Bench trend accumulation: ingest idempotence, series, formatting."""

from __future__ import annotations

import pytest

from repro.bench import (
    BenchArtifact,
    BenchTrendError,
    Scenario,
    ScenarioRecord,
    build_bench_trend,
    format_bench_trend,
    ingest_artifacts,
    open_trend_store,
    point_record,
)


def scenario(sigma: float = 0.0) -> Scenario:
    return Scenario(
        circuit="s9234",
        scale=0.05,
        sigma=sigma,
        executor="serial",
        n_samples=20,
        n_eval_samples=30,
        seed=3,
    )


def artifact(tmp_path, label: str, night: float, seconds: float, fingerprint: str = "abc"):
    """One BENCH_*.json on disk with two scenarios, returned as a path."""
    records = [
        ScenarioRecord(
            scenario=scenario(sigma),
            total_seconds=[seconds + sigma, seconds + sigma + 0.5],
            plan_fingerprint=fingerprint,
        )
        for sigma in (0.0, 1.0)
    ]
    built = BenchArtifact(label=label, suite="quick", records=records, created_unix=night)
    path = tmp_path / f"BENCH_{label}.json"
    built.save(str(path))
    return str(path)


class TestIngest:
    def test_ingest_is_idempotent_across_reingest(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        path = artifact(tmp_path, "night1", night=100.0, seconds=1.0)
        assert ingest_artifacts(store, [path]) == 2
        assert ingest_artifacts(store, [path]) == 0
        assert len(store.history()) == 2

    def test_distinct_nights_accumulate(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        paths = [
            artifact(tmp_path, "night1", night=100.0, seconds=1.0),
            artifact(tmp_path, "night2", night=200.0, seconds=2.0),
        ]
        assert ingest_artifacts(store, paths) == 4

    @pytest.mark.parametrize("uri_prefix", ["jsonl:", "sqlite:"])
    def test_every_store_driver_serves_the_trend(self, tmp_path, uri_prefix):
        store = open_trend_store(f"{uri_prefix}{tmp_path / 'trend.bin'}")
        ingest_artifacts(store, [artifact(tmp_path, "n1", night=100.0, seconds=1.0)])
        trend = build_bench_trend(store)
        assert (trend["n_scenarios"], trend["n_points"]) == (2, 2)

    def test_invalid_record_rejected_by_validator(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        with pytest.raises(BenchTrendError, match="scenario_id"):
            store.append({"fingerprint": "x" * 16})

    def test_point_fingerprint_is_identity_not_values(self, tmp_path):
        built = BenchArtifact(
            label="n1",
            suite="quick",
            records=[ScenarioRecord(scenario=scenario(), total_seconds=[1.0])],
            created_unix=100.0,
        )
        fast = point_record(built, built.records[0])
        built.records[0].total_seconds = [9.0]
        slow = point_record(built, built.records[0])
        assert fast["fingerprint"] == slow["fingerprint"]
        assert fast["best_seconds"] != slow["best_seconds"]


class TestSeries:
    def test_points_ordered_by_artifact_creation_time(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        # Ingested newest-first: the series must still run night1 -> night2.
        ingest_artifacts(
            store,
            [
                artifact(tmp_path, "night2", night=200.0, seconds=2.0),
                artifact(tmp_path, "night1", night=100.0, seconds=1.0),
            ],
        )
        trend = build_bench_trend(store)
        for series in trend["scenarios"]:
            assert [point["label"] for point in series["points"]] == ["night1", "night2"]
            seconds = [point["best_seconds"] for point in series["points"]]
            assert seconds == sorted(seconds)

    def test_scenario_filter(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        ingest_artifacts(store, [artifact(tmp_path, "n1", night=100.0, seconds=1.0)])
        wanted = scenario(1.0).scenario_id
        trend = build_bench_trend(store, scenario_id=wanted)
        assert [series["scenario_id"] for series in trend["scenarios"]] == [wanted]

    def test_plan_drift_is_flagged(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        ingest_artifacts(
            store,
            [
                artifact(tmp_path, "n1", night=100.0, seconds=1.0, fingerprint="aaa"),
                artifact(tmp_path, "n2", night=200.0, seconds=1.0, fingerprint="bbb"),
            ],
        )
        trend = build_bench_trend(store)
        assert all(not series["plan_is_stable"] for series in trend["scenarios"])
        text = format_bench_trend(trend)
        assert "plan DRIFTED" in text

    def test_format_summarises_the_trajectory(self, tmp_path):
        store = open_trend_store(str(tmp_path / "trend.jsonl"))
        ingest_artifacts(
            store,
            [
                artifact(tmp_path, "n1", night=100.0, seconds=1.0),
                artifact(tmp_path, "n2", night=200.0, seconds=2.0),
            ],
        )
        text = format_bench_trend(build_bench_trend(store))
        assert "2 scenarios" not in text  # header counts, not prose
        assert "scenarios : 2 with 4 recorded run(s)" in text
        assert "plan stable" in text
        assert "+100.0%" in text
