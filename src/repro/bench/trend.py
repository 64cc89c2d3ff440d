"""Cross-run benchmark trends: nightly ``BENCH_*.json`` into series.

A trend store is any :mod:`repro.store` backend (``jsonl:`` /
``sqlite:`` URI) opened with a bench-point validator.  The series
machinery is :mod:`repro.store.series`, shared with
:mod:`repro.campaign.trend`: ingestion is idempotent (re-ingesting an
artifact adds nothing), and :func:`build_bench_trend` returns the plain
dict that ``repro bench trend --json`` prints, which
:func:`format_bench_trend` renders as text.

Each ingested point is one scenario of one artifact: fingerprinted over
``(label, created_unix, scenario_id)`` — the identity of a measurement,
not its values — and carrying the best repeat, the full repeat list and
the plan fingerprint.  The series view groups points by scenario id
across runs, ordered by artifact creation time, so it answers the two
trajectory questions directly: *is this scenario drifting slower night
over night* and *did its plan fingerprint ever change* (a fingerprint
flip without a code change is a determinism bug, not a perf story).

CLI surface: ``repro bench trend --store URI [--ingest BENCH_*.json ...]``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.bench.artifact import BenchArtifact, ScenarioRecord, load_artifact
from repro.bench.scenarios import Scenario
from repro.store import Record, StoreBackend, StoreError, open_store
from repro.store.series import Entry, first_to_last, format_series, ingest, series_view

#: Version of the bench trend-point record envelope.
TREND_SCHEMA_VERSION = 1


class BenchTrendError(StoreError):
    """A bench trend store or trend-point record is structurally invalid."""


def validate_trend_record(record: object) -> Dict[str, object]:
    """Structural validation of one trend-point record."""
    if not isinstance(record, dict):
        raise BenchTrendError("trend record must be a JSON object")
    for key, expected in (
        ("fingerprint", str),
        ("scenario_id", str),
        ("label", str),
        ("suite", str),
        ("params", dict),
        ("created_unix", (int, float)),
        ("best_seconds", (int, float)),
        ("total_seconds", list),
        ("plan_fingerprint", str),
    ):
        value = record.get(key)
        if not isinstance(value, expected) or isinstance(value, bool):
            raise BenchTrendError(f"trend record field {key!r} has invalid value {value!r}")
    if not record["fingerprint"]:
        raise BenchTrendError("trend record is missing its 'fingerprint'")
    return record


def open_trend_store(uri: str) -> StoreBackend:
    """Open a bench trend store (any :mod:`repro.store` driver URI)."""
    return open_store(uri, validator=validate_trend_record, error=BenchTrendError)


def point_record(artifact: BenchArtifact, record: ScenarioRecord) -> Dict[str, object]:
    """One scenario of one artifact as an ingestable trend point.

    The fingerprint hashes the *identity* of the measurement — which
    run, which scenario — not its values: the same artifact re-ingested
    is a no-op, while a re-run of the same scenario (fresh
    ``created_unix``) is a new point.
    """
    identity = json.dumps(
        {
            "label": artifact.label,
            "created_unix": float(artifact.created_unix),
            "scenario_id": record.scenario.scenario_id,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return {
        "schema_version": TREND_SCHEMA_VERSION,
        "fingerprint": hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16],
        "scenario_id": record.scenario.scenario_id,
        "label": artifact.label,
        "suite": artifact.suite,
        "params": record.scenario.as_dict(),
        "created_unix": float(artifact.created_unix),
        "best_seconds": record.best_seconds,
        "total_seconds": [float(s) for s in record.total_seconds],
        "plan_fingerprint": record.plan_fingerprint,
    }


def ingest_artifacts(store: StoreBackend, paths: List[str]) -> int:
    """Fold ``BENCH_*.json`` files into the trend store (idempotent).

    Returns the number of points that were actually new.  Artifacts are
    validated on load, so a truncated nightly download fails loudly
    instead of polluting the series.
    """
    artifacts = map(load_artifact, paths)
    points = (point_record(artifact, rec) for artifact in artifacts for rec in artifact.records)
    return ingest(store, points)


def _point(record: Record) -> Entry:
    return {
        "created_unix": float(record["created_unix"]),
        "label": str(record["label"]),
        "best_seconds": float(record["best_seconds"]),
        "plan_fingerprint": str(record["plan_fingerprint"]),
    }


def _describe(record: Record, points: List[Entry]) -> Entry:
    plans = {point["plan_fingerprint"] for point in points if point["plan_fingerprint"]}
    return {"scenario_id": str(record["scenario_id"]), "plan_is_stable": len(plans) <= 1}


def build_bench_trend(
    store: StoreBackend, scenario_id: Optional[str] = None
) -> Dict[str, object]:
    """Per-scenario series from the trend store's history, as ``--json`` prints them.

    Scenarios appear in their deterministic suite order (the same
    :meth:`~repro.bench.scenarios.Scenario.sort_key` every artifact
    uses); each scenario's points are ordered by artifact creation time,
    ingest order breaking ties.  A scenario's plan is stable when every
    run that recorded a plan fingerprint recorded the same one.
    ``scenario_id`` restricts the view; an id with no point in the store
    raises :class:`BenchTrendError`, so a misspelt filter is not read as
    an empty history.
    """
    trend = series_view(
        store,
        "scenarios",
        (record for record in store.history() if scenario_id in (None, record["scenario_id"])),
        key=lambda record: str(record["scenario_id"]),
        order=lambda record: Scenario.from_dict(dict(record["params"])).sort_key(),
        when=lambda record: float(record["created_unix"]),
        point=_point,
        describe=_describe,
    )
    if scenario_id is not None and not trend["scenarios"]:
        raise BenchTrendError(f"scenario {scenario_id!r} is not in trend store {store.uri}")
    return trend


def _line(scenario: Entry) -> str:
    seconds = [point["best_seconds"] for point in scenario["points"]]
    plan = "plan stable" if scenario["plan_is_stable"] else "plan DRIFTED"
    return (
        f"{scenario['scenario_id']}: {scenario['n_points']} run(s), "
        f"best {first_to_last(seconds, 3)}, {plan}"
    )


def format_bench_trend(trend: Dict[str, object]) -> str:
    """Plain-text rendering: one line per scenario, series summarised."""
    return format_series(trend, "scenarios", _line)


__all__ = [
    "BenchTrendError",
    "TREND_SCHEMA_VERSION",
    "build_bench_trend",
    "format_bench_trend",
    "ingest_artifacts",
    "open_trend_store",
    "point_record",
    "validate_trend_record",
]
