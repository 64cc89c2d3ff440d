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

Connections are opened per operation (and per transaction), which makes
one backend object safe to share across threads; ``busy_timeout`` turns
writer collisions into short waits instead of errors.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from typing import Dict, Iterator, List, Optional, Sequence

from repro.store.base import Record, StoreBackend, StoreError, StoreTransaction
from repro.store.jsonl import dump_record

#: Version of the on-disk SQLite layout; bump on breaking changes.
SQLITE_SCHEMA_VERSION = 1

#: Milliseconds a writer waits on a locked database before failing.
BUSY_TIMEOUT_MS = 30_000

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
        """No long-lived handles: every operation opens and closes its own."""

    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Open a configured connection, creating the schema if needed."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        try:
            # Autocommit mode: transactions are opened explicitly with
            # BEGIN IMMEDIATE so their scope is exactly what the code
            # says, not what the driver's implicit-BEGIN heuristics do.
            connection = sqlite3.connect(
                self.path, timeout=BUSY_TIMEOUT_MS / 1000.0, isolation_level=None
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=FULL")
            connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            connection.executescript(_SCHEMA)
            self._check_schema_version(connection)
            return connection
        except sqlite3.DatabaseError as error:
            raise self.error(
                f"store {self.path!r} is not a valid sqlite store: {error}"
            ) from error

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
        connection = self._connect()
        try:
            yield connection
        finally:
            connection.close()

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
                for record in records:
                    self._insert(connection, record)

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[StoreTransaction]:
        with self._connection() as connection:
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                yield _SqliteTransaction(self, connection)


__all__ = ["BUSY_TIMEOUT_MS", "SQLITE_SCHEMA_VERSION", "SqliteBackend"]
