"""Cross-run trends: history ingestion and per-cell series assembly."""

from __future__ import annotations

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, make_record
from repro.campaign.trend import build_trend, format_trend, ingest_stores


@pytest.fixture()
def cells():
    return CampaignSpec(
        name="t",
        seed=5,
        circuits=(("s9234", 0.05),),
        sigmas=(0.0, 1.0),
        budgets=((30, 60),),
    ).cells()


def run_record(cell, value=1.0, runtime=0.5, completed=1000.0):
    return make_record(
        cell,
        {"improved_yield": value, "n_buffers": 2},
        runtime_seconds=runtime,
        completed_unix=completed,
    )


@pytest.fixture(params=["jsonl", "sqlite"])
def store(request, tmp_path):
    return CampaignStore.open(f"{request.param}:{tmp_path / 'trend.bin'}")


class TestIngest:
    def test_ingest_accumulates_runs(self, tmp_path, store, cells):
        nights = []
        for night in range(2):
            src = CampaignStore.open(f"jsonl:{tmp_path / f'night{night}.jsonl'}")
            for cell in cells:
                src.append(run_record(cell, completed=1000.0 + night))
            nights.append(src.uri)
        assert ingest_stores(store, nights) == 2 * len(cells)
        assert len(store.history()) == 2 * len(cells)

    def test_ingest_is_idempotent(self, tmp_path, store, cells):
        src = CampaignStore.open(f"jsonl:{tmp_path / 'n.jsonl'}")
        src.append(run_record(cells[0]))
        assert ingest_stores(store, [src.uri]) == 1
        assert ingest_stores(store, [src.uri]) == 0
        assert len(store.history()) == 1

    def test_ingest_mixes_drivers(self, tmp_path, store, cells):
        a = CampaignStore.open(f"jsonl:{tmp_path / 'a.jsonl'}")
        b = CampaignStore.open(f"sqlite:{tmp_path / 'b.sqlite'}")
        a.append(run_record(cells[0], completed=1.0))
        b.append(run_record(cells[0], completed=2.0))
        assert ingest_stores(store, [a.uri, b.uri]) == 2


class TestBuild:
    def test_series_per_cell_in_expansion_order(self, store, cells):
        for completed in (2000.0, 1000.0):
            for cell in reversed(cells):
                store.backend.ingest(run_record(cell, completed=completed))
        trend = build_trend(store)
        assert [t["cell_id"] for t in trend["cells"]] == [c.cell_id for c in cells]
        assert trend["n_points"] == 2 * len(cells)
        # Points are time-ordered even though ingested newest-first.
        for cell_trend in trend["cells"]:
            completions = [p["completed_unix"] for p in cell_trend["points"]]
            assert completions == sorted(completions)

    def test_cell_filter(self, store, cells):
        for cell in cells:
            store.backend.ingest(run_record(cell))
        trend = build_trend(store, cell_id=cells[0].cell_id)
        assert [t["cell_id"] for t in trend["cells"]] == [cells[0].cell_id]

    def test_empty_store(self, store):
        trend = build_trend(store)
        assert (trend["n_cells"], trend["n_points"]) == (0, 0)

    def test_as_dict_round_trip(self, store, cells):
        store.backend.ingest(run_record(cells[0], runtime=0.25))
        payload = build_trend(store)
        assert payload["n_cells"] == 1
        assert payload["cells"][0]["points"][0]["runtime_seconds"] == 0.25


class TestFormat:
    def test_stable_yield_renders_once(self, store, cells):
        store.backend.ingest(run_record(cells[0], completed=1.0, runtime=1.0))
        store.backend.ingest(run_record(cells[0], completed=2.0, runtime=0.5))
        text = format_trend(build_trend(store))
        assert "Y 100.00%" in text
        assert "UNSTABLE" not in text
        assert "runtime 1.00s -> 0.50s (-50.0%)" in text

    def test_moving_yield_is_flagged_unstable(self, store, cells):
        store.backend.ingest(run_record(cells[0], value=0.9, completed=1.0))
        store.backend.ingest(run_record(cells[0], value=0.8, completed=2.0))
        assert "UNSTABLE" in format_trend(build_trend(store))
