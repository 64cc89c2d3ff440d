"""Distributed aggregation: shard/merge round-trips and conflicts.

The acceptance property: n CI jobs each run ``--shard i/n`` into their
own store, ``CampaignStore.merge`` unions the shard stores, and the
report built from the merged store is **byte-identical** to the report
of one unsharded run of the same spec — across the serial and
processes executors.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.report import build_report, format_report_markdown
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, get_spec, shard_cells
from repro.campaign.store import CampaignStore, CampaignStoreError, make_record


def merge_spec() -> CampaignSpec:
    """A 6-cell matrix small enough to run many times in this module."""
    return CampaignSpec(
        name="merge",
        seed=11,
        circuits=(("s9234", 0.05),),
        sigmas=(0.0, 1.0),
        budgets=((24, 48),),
        replicates=3,
        baselines=(),
    )


def fake_record(cell, value=1.0):
    return make_record(
        cell,
        {"improved_yield": value, "n_buffers": 2},
        runtime_seconds=0.1,
        completed_unix=123.0,
    )


@pytest.fixture(scope="module")
def unsharded(tmp_path_factory):
    """One unsharded serial run of the merge spec plus its report forms."""
    spec = merge_spec()
    store = CampaignStore.open(str(tmp_path_factory.mktemp("full") / "store.jsonl"))
    summary = CampaignRunner(spec, store, executor="serial").run()
    assert summary.n_run == spec.n_cells
    report = build_report(spec, store)
    return spec, report.to_json(), format_report_markdown(report)


class TestShardPartition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("spec_name", ["smoke", "nightly"])
    def test_shards_are_disjoint_and_cover_the_matrix(self, n, spec_name):
        cells = get_spec(spec_name).cells()
        shards = [shard_cells(cells, i, n) for i in range(n)]
        seen = [cell.fingerprint() for shard in shards for cell in shard]
        assert len(seen) == len(set(seen)) == len(cells)
        assert set(seen) == {cell.fingerprint() for cell in cells}

    def test_more_shards_than_cells_leaves_empty_shards(self):
        cells = merge_spec().cells()
        shards = [shard_cells(cells, i, len(cells) + 3) for i in range(len(cells) + 3)]
        assert sum(len(s) for s in shards) == len(cells)
        assert [] in shards


class TestMergeRoundTrip:
    @pytest.mark.parametrize(
        "n,executor,jobs",
        [(2, "serial", None), (3, "serial", None), (2, "processes", 2)],
    )
    def test_merged_shards_report_byte_identical_to_unsharded(
        self, tmp_path, unsharded, n, executor, jobs
    ):
        spec, full_json, full_markdown = unsharded
        shard_paths = []
        for index in range(n):
            store = CampaignStore.open(str(tmp_path / f"shard{index}.jsonl"))
            CampaignRunner(
                spec, store, executor=executor, jobs=jobs,
                shard_index=index, shard_count=n,
            ).run()
            shard_paths.append(store.path)
        merged_path = str(tmp_path / "merged.jsonl")
        summary = CampaignStore.merge(merged_path, shard_paths)
        assert summary.n_records == spec.n_cells
        assert summary.n_duplicates == 0
        report = build_report(spec, CampaignStore.open(merged_path))
        assert report.complete
        assert report.to_json() == full_json
        assert format_report_markdown(report) == full_markdown

    def test_merge_output_is_deterministic_across_input_order(self, tmp_path, unsharded):
        spec, _, _ = unsharded
        shard_paths = []
        for index in range(2):
            store = CampaignStore.open(str(tmp_path / f"s{index}.jsonl"))
            CampaignRunner(spec, store, executor="serial",
                           shard_index=index, shard_count=2).run()
            shard_paths.append(store.path)
        a = str(tmp_path / "ab.jsonl")
        b = str(tmp_path / "ba.jsonl")
        CampaignStore.merge(a, shard_paths)
        CampaignStore.merge(b, list(reversed(shard_paths)))
        assert open(a).read() == open(b).read()


class TestMergeValidation:
    @pytest.fixture()
    def cells(self):
        return merge_spec().cells()

    def test_conflicting_results_raise(self, tmp_path, cells):
        a = CampaignStore.open(str(tmp_path / "a.jsonl"))
        b = CampaignStore.open(str(tmp_path / "b.jsonl"))
        a.append(fake_record(cells[0], value=0.5))
        b.append(fake_record(cells[0], value=0.9))
        with pytest.raises(CampaignStoreError, match="conflicting results"):
            CampaignStore.merge(str(tmp_path / "m.jsonl"), [a.path, b.path])

    def test_identical_duplicates_collapse(self, tmp_path, cells):
        a = CampaignStore.open(str(tmp_path / "a.jsonl"))
        b = CampaignStore.open(str(tmp_path / "b.jsonl"))
        a.append(fake_record(cells[0]))
        # Same deterministic content, different wall-clock envelope.
        duplicate = fake_record(cells[0])
        duplicate["runtime_seconds"] = 99.0
        b.append(duplicate)
        b.append(fake_record(cells[1]))
        summary = CampaignStore.merge(str(tmp_path / "m.jsonl"), [a.path, b.path])
        assert (summary.n_records, summary.n_duplicates) == (2, 1)
        merged = CampaignStore.open(str(tmp_path / "m.jsonl")).load()
        # First occurrence wins, envelope included.
        assert merged[cells[0].fingerprint()]["runtime_seconds"] == 0.1

    def test_missing_input_raises(self, tmp_path, cells):
        a = CampaignStore.open(str(tmp_path / "a.jsonl"))
        a.append(fake_record(cells[0]))
        with pytest.raises(CampaignStoreError, match="does not exist"):
            CampaignStore.merge(
                str(tmp_path / "m.jsonl"), [a.path, str(tmp_path / "nope.jsonl")]
            )

    def test_no_inputs_raises(self, tmp_path):
        with pytest.raises(CampaignStoreError, match="at least one"):
            CampaignStore.merge(str(tmp_path / "m.jsonl"), [])

    def test_corrupt_input_raises(self, tmp_path, cells):
        a = CampaignStore.open(str(tmp_path / "a.jsonl"))
        a.append(fake_record(cells[0]))
        with open(a.path, "a", encoding="utf-8") as handle:
            handle.write('{"not": "a record"}\n')
        with pytest.raises(CampaignStoreError, match="is corrupt"):
            CampaignStore.merge(str(tmp_path / "m.jsonl"), [a.path])

    def test_merge_replaces_output_atomically(self, tmp_path, cells):
        a = CampaignStore.open(str(tmp_path / "a.jsonl"))
        a.append(fake_record(cells[0]))
        out = str(tmp_path / "m.jsonl")
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("stale content\n")
        CampaignStore.merge(out, [a.path])
        assert set(CampaignStore.open(out).load()) == {cells[0].fingerprint()}

    def test_merged_store_records_survive_validation(self, tmp_path, cells):
        stores = []
        for index, cell in enumerate(cells[:3]):
            store = CampaignStore.open(str(tmp_path / f"s{index}.jsonl"))
            store.append(fake_record(cell, value=0.1 * (index + 1)))
            stores.append(store.path)
        CampaignStore.merge(str(tmp_path / "m.jsonl"), stores)
        merged = CampaignStore.open(str(tmp_path / "m.jsonl"))
        ordered = merged.records_in_order()
        assert [r["fingerprint"] for r in ordered] == [
            c.fingerprint() for c in cells[:3]
        ]
        text = open(merged.path).read()
        assert text.endswith("\n")
        for line in text.strip().split("\n"):
            json.loads(line)
