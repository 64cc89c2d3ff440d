"""The SQLite driver's process-wide connection pool.

Each operation takes a configured connection from a pool keyed by the
store file's identity and returns it afterwards.  These tests pin the
rules that keep that as safe as a connection per operation: one
connection per operation at a time, no transaction or read snapshot
carried between operations, nothing shared across a fork, bounded open
files, and a self-contained file after a clean exit.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
import subprocess
import sys
import textwrap
import threading
import traceback

import pytest

import repro
import repro.store.sqlite as sqlite_driver
from repro.service import JobQueue
from repro.store import SqliteBackend, StoreError, dump_record
from tests.service.conftest import make_tiny_spec


def record(fingerprint: str, value: float = 1.0) -> dict:
    return {"fingerprint": fingerprint, "result": {"value": value}}


@pytest.fixture
def connects(monkeypatch):
    """Count the sqlite3.connect calls made through the driver."""
    calls = []
    real = sqlite3.connect

    def counting(*args, **kwargs):
        calls.append(args[0] if args else kwargs.get("database"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting)
    return calls


def split_connections(connects: list, path: str) -> tuple:
    """The counted connections to the store file ``path``, and to the
    temporary files each new store was built under before it was linked
    into place."""
    to_store = [name for name in connects if name == path]
    builds = [name for name in connects if name.startswith(path + ".") and name.endswith(".new")]
    assert len(to_store) + len(builds) == len(connects), connects
    return to_store, builds


def idle_connections(path: str) -> list:
    key = sqlite_driver._file_key(path)
    entry = sqlite_driver._POOL._idle.get(key)
    return [] if entry is None else list(entry[1])


def is_closed(connection: sqlite3.Connection) -> bool:
    try:
        connection.total_changes  # noqa: B018 - raises once closed
    except sqlite3.ProgrammingError:
        return True
    return False


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestReuse:
    def test_operations_on_one_file_open_one_connection(self, tmp_path, connects):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        store.append(record("bb"))
        assert set(store.load()) == {"aa", "bb"}
        assert len(store.history()) == 2
        assert len(store.history("aa")) == 1
        assert store.get("bb") is not None
        with store.transaction() as txn:
            if txn.get("cc") is None:
                txn.append(record("cc"))
        assert store.ingest(record("dd")) is True
        # A second backend object on the same file shares the pool.
        assert set(SqliteBackend(store.path).load()) == {"aa", "bb", "cc", "dd"}
        to_store, builds = split_connections(connects, store.path)
        assert len(to_store) == 1
        assert len(builds) == 1  # the new file was built before it was linked

    def test_claim_opens_at_most_two(self, tmp_path, connects):
        path = str(tmp_path / "queue.sqlite")
        queue = JobQueue.open(f"sqlite:{path}")
        for seed in (1, 2, 3):
            queue.submit(make_tiny_spec(seed=seed))
        for _ in range(4):  # three leases, then an empty claim
            queue.claim("w", lease_seconds=60.0)
        assert queue.depth().leased == 3
        to_store, builds = split_connections(connects, path)
        assert len(to_store) <= 2
        assert len(builds) == 1

    def test_close_checkpoints_and_closes_idle_connections(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        pooled = idle_connections(store.path)
        assert pooled and os.path.exists(store.path + "-wal")
        store.close()
        assert all(is_closed(connection) for connection in pooled)
        assert idle_connections(store.path) == []
        assert not os.path.exists(store.path + "-wal")
        assert set(store.load()) == {"aa"}  # a later operation reopens


class TestSchemaCheck:
    def test_pooled_connection_rechecks_the_version(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        (pooled,) = idle_connections(store.path)
        with sqlite3.connect(store.path) as connection:
            connection.execute(
                "UPDATE store_meta SET value = '99' WHERE key = 'schema_version'"
            )
        with pytest.raises(StoreError, match="schema version 99"):
            store.load()
        assert is_closed(pooled)

    def test_database_error_in_a_pooled_check_is_a_store_error(self, tmp_path):
        class DomainError(StoreError):
            pass

        store = SqliteBackend(str(tmp_path / "s.sqlite"), error=DomainError)
        store.append(record("aa"))
        (pooled,) = idle_connections(store.path)
        with sqlite3.connect(store.path) as connection:
            connection.execute("DROP TABLE store_meta")
        with pytest.raises(DomainError, match="not a valid sqlite store"):
            store.load()
        assert is_closed(pooled)
        assert idle_connections(store.path) == []


class TestNothingCarriedOver:
    def test_connection_left_in_a_transaction_is_closed(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        with store._connection() as connection:
            connection.execute("BEGIN")
        assert is_closed(connection)
        assert idle_connections(store.path) == []

    def test_connection_left_by_an_exception_is_closed(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        with pytest.raises(RuntimeError, match="boom"):
            with store._connection() as connection:
                raise RuntimeError("boom")
        assert is_closed(connection)
        assert idle_connections(store.path) == []

    def test_failed_transaction_leaves_no_partial_write(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        with pytest.raises(RuntimeError, match="boom"):
            with store.transaction() as txn:
                txn.append(record("bb"))
                raise RuntimeError("boom")
        assert set(store.load()) == {"aa"}
        assert [r["fingerprint"] for r in store.history()] == ["aa"]
        assert store.get("bb") is None

    def test_no_read_snapshot_between_operations(self, tmp_path):
        store = SqliteBackend(str(tmp_path / "s.sqlite"))
        store.append(record("aa"))
        assert set(store.load()) == {"aa"}
        assert len(store.history()) == 1
        assert store.get("aa") is not None  # a one-row fetch, the last read
        # Another process's commit, between two operations of this one.
        line = dump_record(record("bb"))
        with sqlite3.connect(store.path) as other:
            other.execute(
                "INSERT INTO history (fingerprint, record) VALUES (?, ?)", ("bb", line)
            )
            other.execute(
                "INSERT INTO records (fingerprint, record) VALUES (?, ?)", ("bb", line)
            )
        other.close()
        assert set(store.load()) == {"aa", "bb"}
        assert [r["fingerprint"] for r in store.history()] == ["aa", "bb"]
        assert store.get("bb") == record("bb")


def _append_in_child(path: str) -> None:
    calls = []
    real = sqlite3.connect

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    sqlite3.connect = counting
    SqliteBackend(path).append(record("child"))
    # The parent's idle connection was not handed over: the child opened
    # its own.
    sys.exit(0 if len(calls) == 1 else 3)


class TestFork:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_uses_its_own_connections(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        store = SqliteBackend(path)
        store.append(record("parent-1"))
        assert idle_connections(path)
        child = multiprocessing.get_context("fork").Process(
            target=_append_in_child, args=(path,)
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0
        store.append(record("parent-2"))
        assert set(store.load()) == {"parent-1", "child", "parent-2"}
        with sqlite3.connect(path) as check:
            assert check.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        check.close()


class _CheckedPool(sqlite_driver._ConnectionPool):
    """A pool that records every connection handed out twice at once."""

    def __init__(self) -> None:
        super().__init__()
        self._guard = threading.Lock()
        self.out: set = set()
        self.doubles: list = []

    def take(self, key):
        connection = super().take(key)
        if connection is not None:
            with self._guard:
                if connection in self.out:
                    self.doubles.append(connection)
                self.out.add(connection)
        return connection

    def give(self, key, path, connection):
        with self._guard:
            self.out.discard(connection)
        super().give(key, path, connection)


class TestThreads:
    def test_threads_share_the_pool_without_double_checkout(self, tmp_path, monkeypatch):
        pool = _CheckedPool()
        monkeypatch.setattr(sqlite_driver, "_POOL", pool)
        path = str(tmp_path / "s.sqlite")
        shared = SqliteBackend(path)
        shared.append(record("seed"))
        errors = []  # formatted tracebacks, so a rare failure shows its origin
        wins = []
        n_each = 12

        def run(worker):
            store = shared if worker % 2 == 0 else SqliteBackend(path)
            try:
                for i in range(n_each):
                    fingerprint = f"w{worker}-{i:02d}"
                    store.append(record(fingerprint))
                    assert fingerprint in store.load()
                    assert len(store.history(fingerprint)) == 1
                    assert store.get(fingerprint) is not None
                    with store.transaction() as txn:
                        if txn.get(f"contested-{i}") is None:
                            txn.append(record(f"contested-{i}"))
                            wins.append(i)
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, "\n".join(errors)
            assert not pool.doubles
            expected = {"seed"}
            expected |= {f"w{w}-{i:02d}" for w in range(4) for i in range(n_each)}
            expected |= {f"contested-{i}" for i in range(n_each)}
            assert set(shared.load()) == expected
            assert len(shared.history()) == len(expected)
            assert sorted(wins) == list(range(n_each))
        finally:
            pool.close()


class TestFileIdentity:
    @pytest.mark.parametrize("sidecars", [(), ("-wal", "-shm")], ids=["main-only", "all"])
    def test_recreated_store_is_read_from_the_new_file(self, tmp_path, connects, sidecars):
        path = str(tmp_path / "s.sqlite")
        SqliteBackend(path).append(record("old"))
        (stale,) = idle_connections(path)
        for suffix in ("",) + sidecars:
            os.remove(path + suffix)
        store = SqliteBackend(path)
        assert store.load() == {}
        store.append(record("new"))
        assert list(store.load()) == ["new"]
        assert [r["fingerprint"] for r in store.history()] == ["new"]
        assert is_closed(stale)  # closed before the new file took its place
        to_store, builds = split_connections(connects, path)
        assert len(to_store) == 2
        # Left-over sidecars make the new file start in place (SQLite then
        # discards the old WAL); without them it is built and linked.
        assert len(builds) == (2 if sidecars else 1)
        with sqlite3.connect(path) as check:
            assert check.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        check.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_open_files_stay_bounded(self, tmp_path):
        sqlite_driver._POOL.close()
        before = open_fds()
        for index in range(50):
            store = SqliteBackend(str(tmp_path / f"s{index}.sqlite"))
            store.append(record("aa"))
            with store.transaction() as txn:
                txn.append(record("bb"))
                store.history()  # a second connection while the first is out
            assert set(store.load()) == {"aa", "bb"}
        # Per file: a main-file and a WAL descriptor per connection, and
        # one shared-memory descriptor.
        bound = sqlite_driver.POOL_FILES * (2 * sqlite_driver.POOL_CONNECTIONS_PER_FILE + 1)
        assert open_fds() - before <= bound
        sqlite_driver._POOL.close()
        assert open_fds() <= before


_APPEND_AND_EXIT = textwrap.dedent(
    """
    import atexit
    import os
    import sys

    path = sys.argv[1]


    def wal_is_gone():
        # Registered before the driver is imported, so it runs after the
        # driver's exit handler and before module teardown could close
        # the connections some other way.
        if os.path.exists(path + "-wal"):
            os._exit(3)


    atexit.register(wal_is_gone)

    from repro.store import SqliteBackend

    store = SqliteBackend(path)
    for index in range(5):
        store.append({"fingerprint": f"f{index}"})
    with store.transaction() as txn:
        txn.append({"fingerprint": "txn"})
    assert len(store.history()) == 6
    """
)


class TestCleanExit:
    def test_clean_exit_leaves_a_self_contained_file(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        done = subprocess.run(
            [sys.executable, "-c", _APPEND_AND_EXIT, path],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        assert not os.path.exists(path + "-wal")
        assert not os.path.exists(path + "-shm")
        # immutable=1 reads the main file alone, ignoring any WAL.
        reader = sqlite3.connect(f"file:{path}?mode=ro&immutable=1", uri=True)
        try:
            rows = reader.execute("SELECT fingerprint FROM records ORDER BY id").fetchall()
        finally:
            reader.close()
        assert [fingerprint for (fingerprint,) in rows] == [f"f{i}" for i in range(5)] + ["txn"]
