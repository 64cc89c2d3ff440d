"""Campaign store diffing and the quality gate."""

from __future__ import annotations

import pytest

from repro.campaign.compare import (
    CampaignComparison,
    CellDelta,
    compare_stores,
    format_campaign_comparison,
    gate_comparison,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, make_record


@pytest.fixture()
def cells():
    return CampaignSpec(
        name="cmp",
        seed=5,
        circuits=(("s9234", 0.05),),
        sigmas=(0.0, 1.0),
        budgets=((30, 60),),
        replicates=2,
        baselines=(),
    ).cells()


def record_for(cell, improved_yield=0.9, n_buffers=4, target_period=10.0, mu_period=9.5):
    return make_record(
        cell,
        {
            "n_flip_flops": 10,
            "n_gates": 50,
            "target_period": target_period,
            "mu_period": mu_period,
            "sigma_period": 0.2,
            "n_buffers": n_buffers,
            "n_physical_buffers": n_buffers,
            "average_range_steps": 2.0,
            "original_yield": 0.5,
            "improved_yield": improved_yield,
            "yield_improvement": improved_yield - 0.5,
            "plan": {},
            "baselines": {},
        },
        runtime_seconds=0.1,
        completed_unix=123.0,
    )


def store_with(tmp_path, name, records):
    store = CampaignStore.open(str(tmp_path / f"{name}.jsonl"))
    for record in records:
        store.append(record)
    return store


class TestCompareStores:
    def test_identical_stores_have_zero_deltas(self, tmp_path, cells):
        records = [record_for(cell) for cell in cells]
        old = store_with(tmp_path, "old", records)
        new = store_with(tmp_path, "new", records)
        comparison = compare_stores(old, new)
        assert len(comparison.deltas) == len(cells)
        assert not comparison.missing_in_new and not comparison.only_in_new
        for delta in comparison.deltas:
            assert delta.yield_delta_points == 0.0
            assert delta.buffer_delta == 0
            assert delta.mu_period_delta == 0.0

    def test_deltas_follow_cell_order(self, tmp_path, cells):
        old = store_with(tmp_path, "old", [record_for(c) for c in reversed(cells)])
        new = store_with(tmp_path, "new", [record_for(c) for c in cells])
        comparison = compare_stores(old, new)
        assert [d.cell_id for d in comparison.deltas] == [c.cell_id for c in cells]

    def test_missing_and_only_cells_are_reported(self, tmp_path, cells):
        old = store_with(tmp_path, "old", [record_for(c) for c in cells[:3]])
        new = store_with(tmp_path, "new", [record_for(c) for c in cells[1:]])
        comparison = compare_stores(old, new)
        assert comparison.missing_in_new == [cells[0].cell_id]
        assert comparison.only_in_new == [cells[3].cell_id]
        assert len(comparison.deltas) == 2

    def test_delta_values(self, tmp_path, cells):
        old = store_with(tmp_path, "old", [record_for(cells[0], improved_yield=0.90, n_buffers=4)])
        new = store_with(tmp_path, "new", [record_for(cells[0], improved_yield=0.85, n_buffers=6)])
        (delta,) = compare_stores(old, new).deltas
        assert delta.yield_delta_points == pytest.approx(-5.0)
        assert delta.buffer_delta == 2
        payload = delta.as_dict()
        assert payload["old_yield"] == 0.90 and payload["new_yield"] == 0.85

    def test_as_dict_round_trip(self, tmp_path, cells):
        old = store_with(tmp_path, "old", [record_for(cells[0])])
        new = store_with(tmp_path, "new", [record_for(cells[0])])
        payload = compare_stores(old, new).as_dict()
        assert payload["old"] == old.path and payload["new"] == new.path
        assert len(payload["cells"]) == 1


class TestGate:
    def _comparison(self, **delta_overrides):
        params = {
            "cell_id": "c0",
            "fingerprint": "f0",
            "old_yield": 0.9,
            "new_yield": 0.9,
            "old_buffers": 4,
            "new_buffers": 4,
            "old_target_period": 10.0,
            "new_target_period": 10.0,
            "old_mu_period": 9.5,
            "new_mu_period": 9.5,
        }
        params.update(delta_overrides)
        return CampaignComparison(
            old_label="old", new_label="new", deltas=[CellDelta(**params)]
        )

    def test_identical_passes(self):
        assert gate_comparison(self._comparison()).passed

    def test_yield_drop_at_threshold_passes(self):
        # 0.875 and 0.75 are binary-exact, so the drop is exactly 12.5
        # points — the inclusive threshold must pass it.
        comparison = self._comparison(old_yield=0.875, new_yield=0.75)
        assert gate_comparison(comparison, max_yield_drop=12.5).passed

    def test_yield_drop_beyond_threshold_fails(self):
        comparison = self._comparison(new_yield=0.88)
        verdict = gate_comparison(comparison, max_yield_drop=0.5)
        assert not verdict.passed
        assert "yield" in verdict.failures[0]

    def test_yield_improvement_always_passes(self):
        comparison = self._comparison(new_yield=0.99)
        assert gate_comparison(comparison, max_yield_drop=0.0).passed

    def test_buffer_increase_beyond_threshold_fails(self):
        comparison = self._comparison(new_buffers=5)
        verdict = gate_comparison(comparison, max_buffer_increase=0)
        assert not verdict.passed and "buffers" in verdict.failures[0]
        assert gate_comparison(comparison, max_buffer_increase=1).passed

    def test_buffer_decrease_passes(self):
        assert gate_comparison(self._comparison(new_buffers=2)).passed

    def test_missing_cells_fail(self):
        comparison = CampaignComparison(
            old_label="old", new_label="new", missing_in_new=["c0"]
        )
        verdict = gate_comparison(comparison)
        assert not verdict.passed and "missing" in verdict.failures[0]

    def test_only_in_new_does_not_fail(self):
        comparison = CampaignComparison(
            old_label="old", new_label="new", only_in_new=["c9"]
        )
        assert gate_comparison(comparison).passed

    def test_bad_thresholds_rejected(self):
        comparison = self._comparison()
        with pytest.raises(ValueError, match="max_yield_drop"):
            gate_comparison(comparison, max_yield_drop=-1.0)
        with pytest.raises(ValueError, match="max_buffer_increase"):
            gate_comparison(comparison, max_buffer_increase=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_yield_drop_rejected(self, value):
        # NaN compares false both ways: it used to pass a 45-point drop.
        comparison = self._comparison(old_yield=0.95, new_yield=0.5)
        with pytest.raises(ValueError, match="max_yield_drop"):
            gate_comparison(comparison, max_yield_drop=value)

    def test_verdict_as_dict(self):
        verdict = gate_comparison(self._comparison(new_yield=0.5))
        payload = verdict.as_dict()
        assert payload["passed"] is False
        assert payload["comparison"]["cells"][0]["cell_id"] == "c0"


class TestFormatting:
    def test_format_lists_all_sections(self, tmp_path, cells):
        old = store_with(tmp_path, "old", [record_for(c) for c in cells[:2]])
        new = store_with(
            tmp_path,
            "new",
            [record_for(cells[1], improved_yield=0.7)] + [record_for(c) for c in cells[2:]],
        )
        text = format_campaign_comparison(compare_stores(old, new))
        assert cells[0].cell_id in text and "missing" in text
        assert cells[1].cell_id in text and "-20.00" in text
        assert cells[2].cell_id in text and "new" in text
