"""SQLite store driver — WAL mode, transactional, safe concurrent writers.

The scale-up driver behind the same :class:`~repro.store.base.StoreBackend`
contract as the JSONL default, built for the many-concurrent-writer
shapes the JSONL file + advisory-lock combination was never meant for
(a campaign *service* with queue and workers):

* **WAL journal** — readers never block writers and vice versa;
  ``synchronous=FULL`` keeps the per-record durability the JSONL driver
  gets from its explicit ``fsync``;
* **true transactional appends** — ``BEGIN IMMEDIATE`` serialises the
  read-check-append critical section inside the database itself; no
  ``.lock`` sidecar, no advisory-lock semantics to get wrong;
* **first-write-wins upserts** keyed by cell fingerprint (``INSERT OR
  IGNORE`` into a fingerprint-keyed table), matching the JSONL
  duplicate rule exactly;
* **append history** — every append lands in a ``history`` table (the
  ``records`` table is its first-wins projection), so cross-run series
  (per-cell runtime/yield trend over nightly ingests) are one indexed
  SQL query instead of bespoke JSONL tooling.

Records are stored as their canonical JSON serialisation and parsed on
read, so a record round-tripped through SQLite is value-identical to
one round-tripped through JSONL — reports over either driver are
byte-identical.

A new store file is created atomically across processes: it is built
complete (WAL mode, schema, version row) under a unique temporary name
in the same directory and hard-linked into place (so the directory's
filesystem must support hard links).  No process ever opens a half-made
store, and two processes creating one store at once both end up on the
file that was linked first.

Each operation (and each transaction) borrows a configured connection
from one process-wide pool, so the pragmas and the schema script run
once per connection rather than once per operation.  The pool is keyed
by the store file's identity (``st_dev``, ``st_ino``) and shared by
every thread and backend object of that file, one operation per
connection at a time; ``busy_timeout`` turns writer collisions into
short waits instead of errors.  Between operations a pooled connection
holds no transaction and no read snapshot, so every operation sees
everything committed before it started.

The pool keeps at most :data:`POOL_CONNECTIONS_PER_FILE` idle
connections for each of the :data:`POOL_FILES` most recently used
files.  It closes a connection when it evicts it, on
:meth:`SqliteBackend.close` and at interpreter exit.  Closing a file's
last connection checkpoints the WAL into the file and deletes it, so a
process that exits cleanly leaves a self-contained store.  As for any
SQLite database, do not delete or replace a store file while another
process may still have it open.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import secrets
import sqlite3
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.store.base import Record, StoreBackend, StoreError, StoreTransaction
from repro.store.jsonl import dump_record

#: Version of the on-disk SQLite layout; bump on breaking changes.
SQLITE_SCHEMA_VERSION = 1

#: Milliseconds a writer waits on a locked database before failing.
BUSY_TIMEOUT_MS = 30_000

#: Idle connections the pool keeps per store file.  Two cover an
#: operation that reads the store inside its own transaction
#: (``JobQueue.claim``).
POOL_CONNECTIONS_PER_FILE = 2

#: Store files the pool keeps idle connections for; the least recently
#: used file's connections are closed past this bound.
POOL_FILES = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL UNIQUE,
    record      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS history (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL,
    record      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_history_fingerprint
    ON history (fingerprint);
CREATE UNIQUE INDEX IF NOT EXISTS idx_history_identity
    ON history (fingerprint, record);
"""


#: A store file's identity: ``(st_dev, st_ino)``.
_FileKey = Tuple[int, int]


def _file_key(path: str) -> Optional[_FileKey]:
    """The identity of the file at ``path`` (``None`` when there is none)."""
    try:
        status = os.stat(path)
    except FileNotFoundError:
        return None
    return status.st_dev, status.st_ino


class _ConnectionPool:
    """Idle configured connections, per store file, for the whole process.

    Files are kept in least-recently-returned order.  Each idle entry
    remembers the path its connections were opened under, so a store
    removed from that path can have them closed before a new file takes
    its place.  Connections are closed outside the lock: closing a
    file's last connection checkpoints its WAL.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: "OrderedDict[_FileKey, Tuple[str, List[sqlite3.Connection]]]" = OrderedDict()
        self._inherited: List[object] = []
        #: Held by a new connection while it switches its file to WAL
        #: (a no-op for the stores this driver creates, which are WAL
        #: from the start).
        self.wal_switch = threading.Lock()

    def take(self, key: _FileKey) -> Optional[sqlite3.Connection]:
        """An idle connection to the file ``key``, now owned by the caller."""
        with self._lock:
            entry = self._idle.get(key)
            if entry is None:
                return None
            connections = entry[1]
            connection = connections.pop()
            if not connections:
                del self._idle[key]
            return connection

    def give(self, key: _FileKey, path: str, connection: sqlite3.Connection) -> None:
        """Return ``connection`` to the file ``key``'s idle connections."""
        closing: List[sqlite3.Connection] = []
        with self._lock:
            connections = self._idle.setdefault(key, (path, []))[1]
            self._idle.move_to_end(key)
            if len(connections) < POOL_CONNECTIONS_PER_FILE:
                connections.append(connection)
            else:
                closing.append(connection)
            while len(self._idle) > POOL_FILES:
                closing.extend(self._idle.popitem(last=False)[1][1])
        for stale in closing:
            stale.close()

    def close(self, path: Optional[str] = None, key: Optional[_FileKey] = None) -> None:
        """Close the idle connections opened under ``path`` or to the file
        ``key``; every idle connection when neither is given."""
        everything = path is None and key is None
        with self._lock:
            keys = [
                candidate
                for candidate, (opened_under, _) in self._idle.items()
                if everything or opened_under == path or candidate == key
            ]
            closing = [connection for k in keys for connection in self._idle.pop(k)[1]]
        for connection in closing:
            connection.close()

    def forget(self) -> None:
        """Drop the parent's connections in a forked child, unclosed.

        A connection must not cross a fork: the child holds none of the
        parent's file locks.  The child keeps them referenced, so that
        garbage collection never closes them there, and starts empty.
        """
        self._inherited.append(self._idle)
        self._idle = OrderedDict()
        self._lock = threading.Lock()
        self.wal_switch = threading.Lock()


_POOL = _ConnectionPool()
atexit.register(_POOL.close)
if hasattr(os, "register_at_fork"):  # absent where there is no fork (Windows)
    os.register_at_fork(after_in_child=_POOL.forget)


class _SqliteTransaction(StoreTransaction):
    """Read-check-append handle bound to one ``BEGIN IMMEDIATE`` scope."""

    def __init__(self, backend: "SqliteBackend", connection: sqlite3.Connection) -> None:
        self._backend = backend
        self._connection = connection

    def get(self, fingerprint: str) -> Optional[Record]:
        row = self._connection.execute(
            "SELECT record FROM records WHERE fingerprint = ?", (str(fingerprint),)
        ).fetchone()
        return None if row is None else self._backend._parse(row[0])

    def append(self, record: Record) -> None:
        record = self._backend.validate(record)
        self._backend._insert(self._connection, record)


class SqliteBackend(StoreBackend):
    """SQLite WAL driver (see module docstring)."""

    driver = "sqlite"

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def close(self) -> None:
        """Close this store file's idle pooled connections.

        The pool closes them at interpreter exit anyway; closing earlier
        checkpoints the WAL into the file now (when no other connection
        to the file is open).  Later operations open new connections.
        """
        path = os.path.abspath(self.path)
        _POOL.close(path=path, key=_file_key(path))

    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Open a configured connection, creating the store if needed."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        try:
            if not os.path.exists(self.path):
                self._create()
            # Autocommit mode: transactions are opened explicitly with
            # BEGIN IMMEDIATE so their scope is exactly what the code
            # says, not what the driver's implicit-BEGIN heuristics do.
            # check_same_thread=False: the pool hands a connection to
            # whichever thread runs the next operation, one at a time.
            connection = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_MS / 1000.0,
                isolation_level=None,
                check_same_thread=False,
            )
            # Switching a file to WAL upgrades a read lock to a write lock,
            # which SQLite refuses at once, ignoring busy_timeout, while
            # another connection holds the write lock.  Files made by
            # _create are WAL already; another file switches one
            # connection at a time within this process.
            with _POOL.wal_switch:
                connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=FULL")
            connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            connection.executescript(_SCHEMA)
            self._check_schema_version(connection)
            return connection
        except sqlite3.DatabaseError as error:
            raise self._invalid(error) from error

    def _create(self) -> None:
        """Create the store file atomically.

        Two processes that set up one new file in place can fail with
        "database is locked" on the switch to WAL.  So the file is built
        complete, in WAL mode with the schema and version row, under a
        unique temporary name in the same directory, then linked into
        place.  When a peer links first, this process opens the peer's
        file.  The temporary name is always removed.

        A ``-wal`` or ``-shm`` file left by a store removed from this path
        would be replayed into a new file that is in WAL mode already.
        Then the file is created in place, where SQLite discards a WAL
        next to an empty database.
        """
        if any(os.path.exists(self.path + suffix) for suffix in ("-wal", "-shm")):
            return
        temporary = f"{self.path}.{os.getpid()}-{secrets.token_hex(4)}.new"
        # Exclusive creation, with the permissions SQLite gives new files.
        os.close(os.open(temporary, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))
        try:
            connection = sqlite3.connect(temporary, isolation_level=None)
            try:
                # No other connection opens the temporary file, so the build
                # is one transaction without per-commit syncs; the finished
                # file is synced once, before it is linked.
                connection.execute("PRAGMA synchronous=OFF")
                connection.execute("PRAGMA journal_mode=WAL")
                connection.executescript("BEGIN;" + _SCHEMA)
                self._check_schema_version(connection)  # inserts and commits
            finally:
                # The last connection checkpoints the WAL into the file
                # and deletes the -wal and -shm files.
                connection.close()
            descriptor = os.open(temporary, os.O_RDWR)
            try:
                os.fsync(descriptor)
            finally:
                os.close(descriptor)
            try:
                os.link(temporary, self.path)
            except FileExistsError:
                pass  # a peer created the store first: open its file
        finally:
            os.unlink(temporary)

    def _invalid(self, error: sqlite3.DatabaseError) -> StoreError:
        return self.error(f"store {self.path!r} is not a valid sqlite store: {error}")

    def _check_schema_version(self, connection: sqlite3.Connection) -> None:
        row = connection.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SQLITE_SCHEMA_VERSION)),
            )
            connection.commit()
            return
        version = int(row[0])
        if version > SQLITE_SCHEMA_VERSION:
            raise self.error(
                f"store {self.path!r} uses sqlite schema version {version}, "
                f"newer than supported {SQLITE_SCHEMA_VERSION}"
            )

    @contextlib.contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """One operation's connection: taken from the pool, returned after.

        A connection that leaves the operation by an exception, or still
        inside a transaction, is closed instead of returned.
        """
        path = os.path.abspath(self.path)
        key = _file_key(path)
        if key is None:
            # The store is new, or was removed from this path.  Close the
            # removed file's connections first: a new file here would map
            # the same -shm, and the POSIX locks one process holds on a
            # file do not exclude each other.
            _POOL.close(path=path)
        connection = None if key is None else _POOL.take(key)
        pooled = connection is not None
        if not pooled:
            connection = self._connect()
            key = _file_key(path)
        try:
            if pooled:
                # On every checkout: the file may have been upgraded by
                # another process since this connection checked it.
                try:
                    self._check_schema_version(connection)
                except sqlite3.DatabaseError as error:
                    raise self._invalid(error) from error
            yield connection
        except BaseException:
            connection.close()
            raise
        if key is None or connection.in_transaction:
            connection.close()
        else:
            _POOL.give(key, path, connection)

    def _parse(self, text: str) -> Record:
        try:
            return self.validate(json.loads(text))
        except (json.JSONDecodeError, StoreError) as error:
            raise self.error(
                f"store {self.path!r} holds a corrupt record: {error}"
            ) from None

    def _insert(self, connection: sqlite3.Connection, record: Record) -> int:
        """History + first-wins upsert; returns the number of new history rows."""
        line = dump_record(record)
        fingerprint = str(record["fingerprint"])
        cursor = connection.execute(
            "INSERT OR IGNORE INTO history (fingerprint, record) VALUES (?, ?)",
            (fingerprint, line),
        )
        connection.execute(
            "INSERT OR IGNORE INTO records (fingerprint, record) VALUES (?, ?)",
            (fingerprint, line),
        )
        return cursor.rowcount

    # ------------------------------------------------------------------
    def _do_load(self) -> Dict[str, Record]:
        if not self.exists():
            return {}
        with self._connection() as connection:
            try:
                rows = connection.execute(
                    "SELECT fingerprint, record FROM records ORDER BY id"
                ).fetchall()
            except sqlite3.DatabaseError as error:
                raise self.error(
                    f"cannot read store {self.path!r}: {error}"
                ) from error
        return {str(fingerprint): self._parse(text) for fingerprint, text in rows}

    def _do_history(self, fingerprint: Optional[str]) -> List[Record]:
        if not self.exists():
            return []
        with self._connection() as connection:
            if fingerprint is None:
                rows = connection.execute(
                    "SELECT record FROM history ORDER BY id"
                ).fetchall()
            else:
                # Served by idx_history_fingerprint.
                rows = connection.execute(
                    "SELECT record FROM history WHERE fingerprint = ? ORDER BY id",
                    (fingerprint,),
                ).fetchall()
        return [self._parse(text) for (text,) in rows]

    def _do_get(self, fingerprint: str) -> Optional[Record]:
        if not self.exists():
            return None
        with self._connection() as connection:
            row = connection.execute(
                "SELECT record FROM records WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return None if row is None else self._parse(row[0])

    def _do_append(self, record: Record) -> None:
        with self._connection() as connection:
            with connection:  # one committed transaction
                connection.execute("BEGIN IMMEDIATE")
                self._insert(connection, record)

    def _do_ingest(self, record: Record) -> bool:
        with self._connection() as connection:
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                return self._insert(connection, record) > 0

    def _do_replace_all(self, records: Sequence[Record]) -> None:
        """Rewrite to exactly ``records``; prune history of dropped cells.

        History rows of *retained* fingerprints survive (GC keeps the
        trend series of the cells it keeps); dropped fingerprints lose
        theirs, and every given record is (re-)ingested so a fresh
        merge output carries its own baseline history.
        """
        with self._connection() as connection:
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                connection.execute("DELETE FROM records")
                keep = [str(record["fingerprint"]) for record in records]
                connection.execute(
                    "CREATE TEMP TABLE IF NOT EXISTS keep_fps (fingerprint TEXT PRIMARY KEY)"
                )
                connection.execute("DELETE FROM keep_fps")
                connection.executemany(
                    "INSERT OR IGNORE INTO keep_fps (fingerprint) VALUES (?)",
                    [(fp,) for fp in keep],
                )
                connection.execute(
                    "DELETE FROM history WHERE fingerprint NOT IN "
                    "(SELECT fingerprint FROM keep_fps)"
                )
                # The connection returns to the pool: leave no rows behind.
                connection.execute("DROP TABLE keep_fps")
                for record in records:
                    self._insert(connection, record)

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[StoreTransaction]:
        with self._connection() as connection:
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                yield _SqliteTransaction(self, connection)


__all__ = ["BUSY_TIMEOUT_MS", "SQLITE_SCHEMA_VERSION", "SqliteBackend"]
