"""Backend conformance: both drivers honour the StoreBackend contract.

Every test in ``TestConformance`` runs against the JSONL *and* the
SQLite driver through one parametrised fixture — the executable form of
the contract in :mod:`repro.store.base`.  Driver-specific guarantees
(lock sidecar vs. no sidecar, on-disk corruption modes) live in their
own classes below.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import traceback

import pytest

from repro.store import (
    BACKENDS,
    JsonlBackend,
    SqliteBackend,
    StoreError,
    dump_record,
    open_store,
)


def record(fingerprint: str, value: float = 1.0, completed: float = 100.0) -> dict:
    return {
        "fingerprint": fingerprint,
        "result": {"value": value},
        "completed_unix": completed,
    }


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    suffix = "jsonl" if request.param == "jsonl" else "sqlite"
    return open_store(f"{request.param}:{tmp_path / f'store.{suffix}'}")


class TestConformance:
    def test_driver_registry(self, backend):
        assert type(backend) is BACKENDS[backend.driver]
        assert backend.uri == f"{backend.driver}:{backend.path}"

    def test_missing_store_is_empty(self, backend):
        assert not backend.exists()
        assert backend.load() == {}
        assert backend.history() == []
        assert backend.fingerprints() == set()
        assert backend.get("nope") is None

    def test_append_load_round_trip(self, backend):
        original = record("aa", value=0.25)
        backend.append(original)
        assert backend.exists()
        loaded = backend.load()
        assert loaded == {"aa": original}
        # Value-exact round trip: ints stay ints, floats stay floats.
        assert isinstance(loaded["aa"]["completed_unix"], float)

    def test_get_by_fingerprint(self, backend):
        backend.append(record("aa"))
        backend.append(record("bb", value=2.0))
        assert backend.get("bb")["result"]["value"] == 2.0
        assert backend.get("zz") is None

    def test_duplicate_fingerprint_first_write_wins(self, backend):
        backend.append(record("aa", value=0.5))
        backend.append(record("aa", value=0.9))
        assert backend.load()["aa"]["result"]["value"] == 0.5
        assert backend.get("aa")["result"]["value"] == 0.5

    def test_history_keeps_every_append_in_order(self, backend):
        backend.append(record("aa", value=0.5))
        backend.append(record("bb"))
        backend.append(record("aa", value=0.9))
        values = [(r["fingerprint"], r["result"]["value"]) for r in backend.history()]
        assert values == [("aa", 0.5), ("bb", 1.0), ("aa", 0.9)]

    def test_history_of_one_fingerprint_is_the_filtered_history(self, backend):
        assert backend.history("aa") == []  # missing store
        for fingerprint, value in [("aa", 0.5), ("bb", 1.0), ("aa", 0.9), ("cc", 2.0),
                                   ("bb", 1.5), ("aa", 0.1)]:
            backend.append(record(fingerprint, value=value))
        everything = backend.history()
        for fingerprint in ("aa", "bb", "cc"):
            assert backend.history(fingerprint) == [
                r for r in everything if r["fingerprint"] == fingerprint
            ]
        assert [r["result"]["value"] for r in backend.history("aa")] == [0.5, 0.9, 0.1]
        assert backend.history("zz") == []

    def test_event_log_usage_folds_in_order(self, backend):
        # The service job queue rides on this exact contract: many
        # appends per fingerprint, history in append order, load()
        # keeping the first (the submit event).
        events = [
            {"fingerprint": "job", "event": "submit", "at_unix": 1.0},
            {"fingerprint": "job", "event": "lease", "at_unix": 2.0},
            {"fingerprint": "job", "event": "heartbeat", "at_unix": 3.0},
            {"fingerprint": "job", "event": "complete", "at_unix": 4.0},
        ]
        for event in events:
            backend.append(event)
        assert [r["event"] for r in backend.history()] == [
            "submit", "lease", "heartbeat", "complete",
        ]
        assert backend.load()["job"]["event"] == "submit"
        assert backend.get("job")["event"] == "submit"

    def test_ingest_is_idempotent(self, backend):
        assert backend.ingest(record("aa")) is True
        assert backend.ingest(record("aa")) is False
        assert len(backend.history()) == 1
        # Different content for the same fingerprint is a new history
        # row, but load() still keeps the first record.
        assert backend.ingest(record("aa", value=2.0)) is True
        assert len(backend.history()) == 2
        assert backend.load()["aa"]["result"]["value"] == 1.0

    def test_replace_all_rewrites_in_order(self, backend):
        for fp in ("aa", "bb", "cc"):
            backend.append(record(fp))
        backend.replace_all([record("cc"), record("aa")])
        assert list(backend.load()) == ["cc", "aa"]
        assert len(backend.history()) == 2

    def test_replace_all_empty_clears_the_store(self, backend):
        backend.append(record("aa"))
        backend.replace_all([])
        assert backend.load() == {}

    def test_transaction_get_sees_appends_within(self, backend):
        backend.append(record("aa"))
        with backend.transaction() as txn:
            assert txn.get("aa")["fingerprint"] == "aa"
            assert txn.get("bb") is None
            txn.append(record("bb"))
            assert txn.get("bb") is not None
        assert set(backend.load()) == {"aa", "bb"}

    def test_context_manager_closes(self, backend):
        with backend as handle:
            handle.append(record("aa"))
        assert backend.load() == {"aa": record("aa")}

    def test_default_validation_rejects_bad_records(self, backend):
        with pytest.raises(StoreError, match="fingerprint"):
            backend.append({"result": {}})
        with pytest.raises(StoreError, match="JSON object"):
            backend.append(["not", "a", "record"])

    def test_custom_validator_and_error_class(self, tmp_path, backend):
        class DomainError(StoreError):
            pass

        def validator(candidate):
            if not isinstance(candidate, dict) or "blessed" not in candidate:
                raise DomainError("record is not blessed")
            return candidate

        store = BACKENDS[backend.driver](
            str(tmp_path / "custom.bin"), validator=validator, error=DomainError
        )
        with pytest.raises(DomainError, match="not blessed"):
            store.append(record("aa"))
        store.append({"fingerprint": "aa", "blessed": True})
        assert store.load()["aa"]["blessed"] is True

    def test_error_class_must_subclass_store_error(self, backend):
        with pytest.raises(TypeError, match="StoreError"):
            BACKENDS[backend.driver]("x", error=ValueError)

    def test_concurrent_appends_land_exactly_once(self, backend):
        # 4 threads x 8 distinct fingerprints through the bare append
        # path: every record lands, the store stays well-formed.
        records = [record(f"f{i:02d}") for i in range(8)]
        errors = []  # formatted tracebacks, so a rare failure shows its origin

        def run(worker):
            try:
                for rec in records[worker::4]:
                    backend.append(rec)
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

        threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, "\n".join(errors)
        assert set(backend.load()) == {rec["fingerprint"] for rec in records}

    def test_transactional_publish_race_single_winner(self, backend):
        # The pool-publish shape: N threads race read-check-append on
        # ONE fingerprint; exactly one append may win.
        wins = []
        errors = []  # formatted tracebacks, so a rare failure shows its origin
        barrier = threading.Barrier(4)

        def publish():
            try:
                barrier.wait()
                with backend.transaction() as txn:
                    if txn.get("contested") is None:
                        txn.append(record("contested"))
                        wins.append(1)
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

        threads = [threading.Thread(target=publish) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, "\n".join(errors)
        assert len(wins) == 1
        assert len(backend.history()) == 1

    def test_instrumentation_counts_operations(self, backend):
        from repro.obs.metrics import get_registry

        backend.append(record("aa"))
        backend.load()
        counters = get_registry().snapshot()["counters"]
        assert counters.get(f"store.{backend.driver}.append", 0) >= 1
        assert counters.get(f"store.{backend.driver}.load", 0) >= 1


class TestJsonlSpecifics:
    def test_lock_sidecar_is_created(self, tmp_path):
        store = JsonlBackend(str(tmp_path / "s.jsonl"))
        with store.transaction() as txn:
            txn.append(record("aa"))
        assert os.path.exists(store.path + ".lock")

    def test_kill_mid_append_artifact_is_tolerated(self, tmp_path):
        store = JsonlBackend(str(tmp_path / "s.jsonl"))
        store.append(record("aa"))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(dump_record(record("bb"))[:10])
        assert set(store.load()) == {"aa"}
        # The next append truncates the partial tail instead of fusing.
        store.append(record("cc"))
        assert set(store.load()) == {"aa", "cc"}

    def test_corrupt_middle_line_raises_with_position(self, tmp_path):
        store = JsonlBackend(str(tmp_path / "s.jsonl"))
        store.append(record("aa"))
        store.append(record("bb"))
        lines = open(store.path).read().splitlines()
        lines[0] = lines[0][:-4]
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="line 1 is corrupt"):
            store.load()

    def test_dump_record_is_canonical(self):
        assert dump_record({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestSqliteSpecifics:
    def test_no_lock_sidecar(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        with store.transaction() as txn:
            txn.append(record("aa"))
        store.append(record("bb"))
        assert not os.path.exists(store.path + ".lock")

    def test_wal_mode_is_enabled(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        with sqlite3.connect(store.path) as connection:
            assert connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_not_a_sqlite_file_raises(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_text("this is not a database\n")
        store = SqliteBackend(str(path))
        with pytest.raises(StoreError, match="not a valid sqlite store"):
            store.load()

    def test_newer_schema_version_rejected(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        with sqlite3.connect(store.path) as connection:
            connection.execute(
                "UPDATE store_meta SET value = '99' WHERE key = 'schema_version'"
            )
        with pytest.raises(StoreError, match="schema version 99"):
            store.load()

    def test_records_round_trip_canonical_json(self, tmp_path):
        # The stored text is the canonical dump, so a JSONL store fed
        # from a sqlite scan stays byte-identical.
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        original = record("aa", value=0.125)
        store.append(original)
        with sqlite3.connect(store.path) as connection:
            (text,) = connection.execute("SELECT record FROM records").fetchone()
        assert text == dump_record(original)
        assert json.loads(text) == original

    def test_multiprocess_style_two_backends_one_file(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        a, b = SqliteBackend(path), SqliteBackend(path)
        a.append(record("aa"))
        b.append(record("bb"))
        assert set(a.load()) == set(b.load()) == {"aa", "bb"}
