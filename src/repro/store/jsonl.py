"""Append-only JSONL store driver — the zero-dependency default.

One canonically-serialised record per line, appended **and fsynced** in
a single write, which yields the durability contract the campaign
checkpoint store has relied on since PR 4:

* a truncated **final** line is tolerated silently *only* when the file
  does not end with a newline — the classic kill-during-write artefact
  (:meth:`JsonlBackend.append` writes every complete record and its
  terminating ``\\n`` in one call, so an interrupted append can never
  leave a newline behind its partial record);
* a malformed line anywhere else — including a malformed final line in
  a newline-terminated file — means the file was corrupted, not
  interrupted, and raises the configured error class rather than
  silently dropping results;
* a duplicate fingerprint keeps the **first** record.

Concurrent writers sharing one file are serialised by a best-effort
advisory lock (``fcntl``/``msvcrt``) on a ``<store>.lock`` sidecar
around the truncate+append critical section; :meth:`transaction` exposes
the same lock as the backend's read-check-append critical section.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.store.base import Record, StoreBackend, StoreError, StoreTransaction

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]
try:  # Windows
    import msvcrt
except ImportError:
    msvcrt = None  # type: ignore[assignment]


def dump_record(record: Record) -> str:
    """The canonical one-line serialisation of a record (no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def _advisory_lock(path: str) -> Iterator[None]:
    """Best-effort exclusive advisory file lock (no-op without a backend)."""
    if fcntl is None and msvcrt is None:  # pragma: no cover - exotic platform
        yield
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a+b") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        else:  # pragma: no cover - Windows
            handle.seek(0)
            msvcrt.locking(handle.fileno(), msvcrt.LK_LOCK, 1)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            else:  # pragma: no cover - Windows
                handle.seek(0)
                msvcrt.locking(handle.fileno(), msvcrt.LK_UNLCK, 1)


class _JsonlTransaction(StoreTransaction):
    """Read-check-append handle held under the store's advisory lock.

    The file is snapshotted lazily on first :meth:`get`; appends go
    straight to disk (lock already held, so no re-locking) and update
    the snapshot, keeping repeated get/append pairs coherent within one
    critical section.
    """

    def __init__(self, backend: "JsonlBackend") -> None:
        self._backend = backend
        self._snapshot: Optional[Dict[str, Record]] = None

    def get(self, fingerprint: str) -> Optional[Record]:
        if self._snapshot is None:
            self._snapshot = self._backend._do_load()
        return self._snapshot.get(str(fingerprint))

    def append(self, record: Record) -> None:
        record = self._backend.validate(record)
        self._backend._append_locked(record)
        if self._snapshot is not None:
            self._snapshot.setdefault(str(record["fingerprint"]), record)


class JsonlBackend(StoreBackend):
    """Append-only JSONL driver (see module docstring)."""

    driver = "jsonl"

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def close(self) -> None:
        """No long-lived handles: every operation opens and closes its own."""

    # ------------------------------------------------------------------
    def _read_records(self) -> List[Tuple[str, Record]]:
        """Parse every complete line into ``(fingerprint, record)`` pairs."""
        if not self.exists():
            return []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise self.error(f"cannot read store {self.path!r}: {error}") from error
        lines = text.split("\n")
        # Every *complete* record ends with a newline written in the same
        # call as the record itself, so only a file NOT ending in "\n"
        # can carry an interrupted-append artefact on its final line.
        newline_terminated = text.endswith("\n")
        # Trailing empty strings come from the final newline; drop them so
        # "the last line" below is the last line with content.
        while lines and lines[-1] == "":
            lines.pop()
        parsed: List[Tuple[str, Record]] = []
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = self.validate(json.loads(line))
            except (json.JSONDecodeError, StoreError) as error:
                if position == len(lines) - 1 and not newline_terminated:
                    # Interrupted mid-append: the record was never
                    # completed, so its cell simply re-runs on resume.
                    break
                raise self.error(
                    f"store {self.path!r} line {position + 1} is corrupt: {error}"
                ) from None
            parsed.append((str(record["fingerprint"]), record))
        return parsed

    def _do_load(self) -> Dict[str, Record]:
        records: Dict[str, Record] = {}
        for fingerprint, record in self._read_records():
            records.setdefault(fingerprint, record)
        return records

    def _do_history(self, fingerprint: Optional[str]) -> List[Record]:
        return [
            record
            for key, record in self._read_records()
            if fingerprint is None or key == fingerprint
        ]

    def _do_get(self, fingerprint: str) -> Optional[Record]:
        return self._do_load().get(fingerprint)

    # ------------------------------------------------------------------
    def _truncate_partial_tail(self) -> None:
        """Drop a partial trailing record left by a kill mid-append.

        Truncating it *before* appending keeps the invariant that
        corruption can only ever live on the final line — which
        :meth:`load` tolerates — never in the middle of the file.
        """
        if not self.exists():
            return
        with open(self.path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            content = handle.read()
            keep = content.rfind(b"\n") + 1
            handle.truncate(keep)

    def _append_locked(self, record: Record) -> None:
        """Truncate-then-append one record; the caller holds the lock."""
        line = dump_record(record)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._truncate_partial_tail()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _do_append(self, record: Record) -> None:
        with self._lock():
            self._append_locked(record)

    def _do_ingest(self, record: Record) -> bool:
        with self._lock():
            line = dump_record(record)
            if any(dump_record(seen) == line for seen in self._do_history(None)):
                return False
            self._append_locked(record)
            return True

    def _do_replace_all(self, records: Sequence[Record]) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        temp_path = self.path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(dump_record(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.path)

    # ------------------------------------------------------------------
    def _lock(self) -> ContextManager[None]:
        """Advisory exclusive lock on this store (``<path>.lock`` sidecar)."""
        return _advisory_lock(self.path + ".lock")

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[StoreTransaction]:
        with self._lock():
            yield _JsonlTransaction(self)


__all__ = ["JsonlBackend", "dump_record"]
