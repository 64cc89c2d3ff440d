"""Campaign store: durability, resume keys and corruption handling."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    CampaignStore,
    CampaignStoreError,
    STORE_SCHEMA_VERSION,
    default_store_path,
    make_record,
)


@pytest.fixture()
def cells():
    return CampaignSpec(
        name="t",
        seed=5,
        circuits=(("s9234", 0.05),),
        sigmas=(0.0, 1.0),
        budgets=((30, 60),),
    ).cells()


def fake_record(cell, value=1.0):
    return make_record(
        cell,
        {"improved_yield": value, "n_buffers": 2},
        runtime_seconds=0.1,
        completed_unix=123.0,
    )


class TestBasics:
    def test_default_store_path_sanitises(self, tmp_path):
        path = default_store_path("a b/c", str(tmp_path))
        assert "CAMPAIGN_a-b-c-" in path and path.endswith(".jsonl")

    def test_default_store_path_unchanged_names_have_no_hash(self, tmp_path):
        assert default_store_path("plain-name_1.2", str(tmp_path)).endswith(
            "CAMPAIGN_plain-name_1.2.jsonl"
        )

    def test_default_store_path_distinct_names_never_collide(self, tmp_path):
        # Sanitisation alone maps both to "a-b"; the appended name hash
        # keeps two distinct campaigns out of one checkpoint file.
        assert default_store_path("a/b", str(tmp_path)) != default_store_path(
            "a:b", str(tmp_path)
        )

    def test_missing_file_is_empty(self, tmp_path):
        store = CampaignStore.open(str(tmp_path / "none.jsonl"))
        assert store.load() == {}
        assert store.fingerprints() == set()

    def test_append_and_load_round_trip(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        for cell in cells:
            store.append(fake_record(cell))
        records = store.load()
        assert set(records) == {c.fingerprint() for c in cells}
        for cell in cells:
            record = records[cell.fingerprint()]
            assert record["schema_version"] == STORE_SCHEMA_VERSION
            assert record["cell"] == cell.as_dict()

    def test_records_in_order_follows_cell_sort(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        for cell in reversed(cells):
            store.append(fake_record(cell))
        ordered = store.records_in_order()
        assert [r["fingerprint"] for r in ordered] == [c.fingerprint() for c in cells]

    def test_append_validates(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        record = fake_record(cells[0])
        record["fingerprint"] = "deadbeefdeadbeef"
        with pytest.raises(CampaignStoreError, match="does not match"):
            store.append(record)


class TestCorruption:
    def test_truncated_final_line_is_ignored(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0]))
        complete = json.dumps(fake_record(cells[1]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(complete[: len(complete) // 2])
        records = store.load()
        assert set(records) == {cells[0].fingerprint()}

    def test_append_after_truncated_tail_keeps_store_loadable(self, tmp_path, cells):
        # The kill-mid-append artefact must not become a corrupt middle
        # line once the campaign resumes and appends more records.
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"partial": tru')
        store.append(fake_record(cells[1]))
        records = store.load()
        assert set(records) == {cells[0].fingerprint(), cells[1].fingerprint()}

    def test_corrupt_middle_line_raises(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0]))
        store.append(fake_record(cells[1]))
        lines = open(store.path).read().splitlines()
        lines[0] = lines[0][:-5]
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(CampaignStoreError, match="line 1 is corrupt"):
            store.load()

    def test_invalid_cell_object_is_a_store_error(self, tmp_path, cells):
        # A cell dict missing a required field must surface as the
        # CampaignStoreError the loader and the CLI handle — not as a
        # raw TypeError escaping the final-line tolerance.
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        record = fake_record(cells[0])
        del record["cell"]["circuit"]
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps(fake_record(cells[1])) + "\n")
        with pytest.raises(CampaignStoreError, match="line 1 is corrupt"):
            store.load()

    def test_newline_terminated_corrupt_final_line_raises(self, tmp_path, cells):
        # Every complete record ends with "\n" written in the same call,
        # so a malformed final line in a newline-terminated file is
        # corruption — not an interrupted append — and must not be
        # silently dropped.
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0]))
        record = fake_record(cells[1])
        record["cell"]["circuit"] = "nope"
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(CampaignStoreError, match="line 2 is corrupt"):
            store.load()

    def test_newline_terminated_truncated_final_line_raises(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0]))
        partial = json.dumps(fake_record(cells[1]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(partial[: len(partial) // 2] + "\n")
        with pytest.raises(CampaignStoreError, match="line 2 is corrupt"):
            store.load()

    def test_invalid_cell_on_unterminated_final_line_is_tolerated(self, tmp_path, cells):
        # Without the trailing newline this *is* the kill-mid-append
        # artefact, even when the partial happens to be valid JSON.
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0]))
        record = fake_record(cells[1])
        record["cell"]["circuit"] = "nope"
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record))
        assert set(store.load()) == {cells[0].fingerprint()}

    def test_duplicate_fingerprint_keeps_first(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        store.append(fake_record(cells[0], value=0.5))
        store.append(fake_record(cells[0], value=0.9))
        records = store.load()
        assert records[cells[0].fingerprint()]["result"]["improved_yield"] == 0.5

    def test_newer_schema_version_rejected(self, tmp_path, cells):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        record = fake_record(cells[0])
        record["schema_version"] = STORE_SCHEMA_VERSION + 1
        store.append(fake_record(cells[1]))
        with open(store.path, "r+", encoding="utf-8") as handle:
            existing = handle.read()
            handle.seek(0)
            handle.write(json.dumps(record) + "\n" + existing)
        with pytest.raises(CampaignStoreError, match="newer than supported"):
            store.load()


class TestUriAddressing:
    def test_open_bare_path_infers_jsonl(self, tmp_path):
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        assert store.uri.startswith("jsonl:")

    def test_open_sqlite_uri(self, tmp_path, cells):
        store = CampaignStore.open(f"sqlite:{tmp_path / 's.sqlite'}")
        store.append(fake_record(cells[0]))
        assert store.uri.startswith("sqlite:")
        assert set(store.load()) == {cells[0].fingerprint()}

    def test_open_unknown_driver_raises(self, tmp_path):
        with pytest.raises(CampaignStoreError, match="unknown store driver"):
            CampaignStore.open(f"bogus:{tmp_path / 's.bin'}")


class TestSqliteParity:
    """The sqlite driver honours the exact campaign-store semantics."""

    def test_duplicate_fingerprint_keeps_first(self, tmp_path, cells):
        store = CampaignStore.open(f"sqlite:{tmp_path / 's.sqlite'}")
        store.append(fake_record(cells[0], value=0.5))
        store.append(fake_record(cells[0], value=0.9))
        assert store.load()[cells[0].fingerprint()]["result"]["improved_yield"] == 0.5

    def test_append_validates(self, tmp_path, cells):
        store = CampaignStore.open(f"sqlite:{tmp_path / 's.sqlite'}")
        record = fake_record(cells[0])
        record["fingerprint"] = "deadbeefdeadbeef"
        with pytest.raises(CampaignStoreError, match="does not match"):
            store.append(record)

    def test_records_round_trip_value_exactly(self, tmp_path, cells):
        jsonl = CampaignStore.open(f"jsonl:{tmp_path / 's.jsonl'}")
        sqlite = CampaignStore.open(f"sqlite:{tmp_path / 's.sqlite'}")
        for cell in cells:
            jsonl.append(fake_record(cell))
            sqlite.append(fake_record(cell))
        assert jsonl.load() == sqlite.load()
        assert jsonl.records_in_order() == sqlite.records_in_order()

    def test_merge_mixes_drivers(self, tmp_path, cells):
        a = CampaignStore.open(f"jsonl:{tmp_path / 'a.jsonl'}")
        b = CampaignStore.open(f"sqlite:{tmp_path / 'b.sqlite'}")
        a.append(fake_record(cells[0]))
        b.append(fake_record(cells[1]))
        out_uri = f"sqlite:{tmp_path / 'm.sqlite'}"
        summary = CampaignStore.merge(out_uri, [a.uri, b.uri])
        assert summary.n_records == 2
        merged = CampaignStore.open(out_uri)
        assert set(merged.load()) == {c.fingerprint() for c in cells[:2]}


class TestAdvisoryLock:
    def test_lock_is_exclusive_while_held(self, tmp_path, cells):
        fcntl = pytest.importorskip("fcntl")
        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        with store.transaction():
            with open(store.path + ".lock", "a+b") as probe:
                with pytest.raises(OSError):
                    fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        # Released on exit: a second writer can take it again.
        with open(store.path + ".lock", "a+b") as probe:
            fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(probe.fileno(), fcntl.LOCK_UN)

    def test_concurrent_appends_interleave_safely(self, tmp_path, cells):
        # Two threads hammering one store (the shared-store shard
        # scenario) must produce a well-formed file containing every
        # record exactly once — the truncate+append critical section is
        # serialised by the advisory lock.
        from concurrent.futures import ThreadPoolExecutor

        store = CampaignStore.open(str(tmp_path / "s.jsonl"))
        records = [fake_record(cell) for cell in cells]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(store.append, records))
        loaded = store.load()
        assert set(loaded) == {cell.fingerprint() for cell in cells}
        with open(store.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("\n") and len(text.strip().split("\n")) == len(cells)
