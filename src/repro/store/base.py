"""The storage backend contract shared by every ``repro.store`` driver.

A *store* is an ordered collection of JSON-object **records**, each
carrying a content-address in its ``"fingerprint"`` field.  Backends
promise the same observable semantics regardless of on-disk format, so
domain layers (:class:`repro.campaign.store.CampaignStore`,
:class:`repro.campaign.pool.ResultPool`) stay byte-identical in what
they report no matter which driver holds their records:

* **append** is durable (synced before it returns) and atomic with
  respect to concurrent writers: a reader never observes a torn record;
* **load** returns records keyed by fingerprint, *first write wins* —
  duplicate fingerprints keep the earliest record, matching what a
  resume would have skipped;
* **history** returns every appended record in append order, duplicates
  included — the raw series ``load`` collapses, and the substrate for
  cross-run trend queries; given a fingerprint it returns only that
  fingerprint's records, still in append order;
* **transaction** brackets a read-check-append critical section so two
  writers cannot interleave between checking a fingerprint and
  appending its record (advisory lock for JSONL, ``BEGIN IMMEDIATE``
  for SQLite);
* **replace_all** atomically rewrites the store to exactly the given
  records in the given order (merge outputs, GC retention).

Records are validated by a caller-supplied ``validator`` on every read
and write, and structural failures raise the caller-supplied ``error``
class (a :class:`StoreError` subclass), so domain layers keep their own
exception types — :class:`~repro.campaign.store.CampaignStoreError`
for campaign stores — without the backends knowing about them.
"""

from __future__ import annotations

import abc
import contextlib
import time
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Set, Type

#: One store record: a JSON object with a ``"fingerprint"`` string field.
Record = Dict[str, object]

#: Validates (and returns) one record, raising on structural problems.
Validator = Callable[[object], Record]


class StoreError(ValueError):
    """A store is structurally invalid or was addressed incorrectly."""


class StoreTransaction(abc.ABC):
    """Handle onto one open read-check-append critical section.

    Obtained from :meth:`StoreBackend.transaction`; ``get``/``append``
    observe and extend the store *within* the critical section, so the
    check-then-append race of two concurrent publishers cannot
    interleave.
    """

    @abc.abstractmethod
    def get(self, fingerprint: str) -> Optional[Record]:
        """The current record for ``fingerprint`` (first-write-wins view)."""

    @abc.abstractmethod
    def append(self, record: Record) -> None:
        """Durably append one record inside the critical section."""


class StoreBackend(abc.ABC):
    """Abstract driver over one store file (see module docstring).

    Construction is cheap and never touches the filesystem; a path that
    does not exist yet is an empty store.  Backends are context
    managers; :meth:`close` releases any long-lived handles (a no-op
    for handle-per-operation drivers).
    """

    #: Short driver name, matching the URI prefix (``jsonl``/``sqlite``).
    driver: str = "abstract"

    def __init__(
        self,
        path: str,
        validator: Optional[Validator] = None,
        error: Type[StoreError] = StoreError,
    ) -> None:
        if not issubclass(error, StoreError):
            raise TypeError(f"error class must subclass StoreError, got {error!r}")
        self.path = str(path)
        self.validator = validator
        self.error = error

    # ------------------------------------------------------------------
    @property
    def uri(self) -> str:
        """The ``driver:path`` URI addressing this store."""
        return f"{self.driver}:{self.path}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def validate(self, record: object) -> Record:
        """Run the configured validator (identity when none is set)."""
        if self.validator is not None:
            return self.validator(record)
        if not isinstance(record, dict):
            raise self.error("store record must be a JSON object")
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise self.error("store record is missing its 'fingerprint'")
        return record

    # ------------------------------------------------------------------
    # Instrumented public surface (the obs span is a near-free no-op
    # when tracing is off; the counters are always on).
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _instrument(self, op: str) -> Iterator[None]:
        from repro.obs.metrics import get_registry
        from repro.obs.trace import span as trace_span

        start = time.perf_counter()
        with trace_span(f"store.{op}", driver=self.driver, path=self.path):
            yield
        registry = get_registry()
        registry.counter(f"store.{self.driver}.{op}").inc()
        registry.histogram(f"store.{self.driver}.{op}.seconds").observe(
            time.perf_counter() - start
        )

    def load(self) -> Dict[str, Record]:
        """All records keyed by fingerprint, first write winning."""
        with self._instrument("load"):
            return self._do_load()

    def history(self, fingerprint: Optional[str] = None) -> List[Record]:
        """Every appended record in append order (duplicates included).

        With ``fingerprint``, only the records carrying it — exactly
        ``[r for r in history() if r["fingerprint"] == fingerprint]``.
        An event log folded one key at a time (the job queue reading one
        job) reads that key's records instead of the whole log; SQLite
        answers from its fingerprint index.
        """
        with self._instrument("history"):
            return self._do_history(None if fingerprint is None else str(fingerprint))

    def get(self, fingerprint: str) -> Optional[Record]:
        """The record for one fingerprint (no transaction held)."""
        with self._instrument("get"):
            return self._do_get(str(fingerprint))

    def append(self, record: Record) -> None:
        """Validate and durably append one record."""
        record = self.validate(record)
        with self._instrument("append"):
            self._do_append(record)

    def ingest(self, record: Record) -> bool:
        """Append into the history unless an identical record is already there.

        Unlike :meth:`append` — which records every completed cell as it
        happens — ``ingest`` is the idempotent bulk path for folding
        *other stores'* records into this one (trend accumulation):
        re-ingesting the same file is a no-op.  Returns ``True`` when
        the record was new.
        """
        record = self.validate(record)
        with self._instrument("ingest"):
            return self._do_ingest(record)

    def replace_all(self, records: Sequence[Record]) -> None:
        """Atomically rewrite the store to exactly ``records``, in order."""
        validated = [self.validate(record) for record in records]
        with self._instrument("replace"):
            self._do_replace_all(validated)

    def transaction(self) -> ContextManager[StoreTransaction]:
        """Open a read-check-append critical section (see class docstring)."""
        return self._transaction()

    def fingerprints(self) -> Set[str]:
        """Fingerprints of all stored records."""
        return set(self.load())

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def exists(self) -> bool:
        """Whether the store has been materialised on disk."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release any long-lived resources (safe to call repeatedly)."""

    @abc.abstractmethod
    def _do_load(self) -> Dict[str, Record]: ...

    @abc.abstractmethod
    def _do_history(self, fingerprint: Optional[str]) -> List[Record]: ...

    @abc.abstractmethod
    def _do_get(self, fingerprint: str) -> Optional[Record]: ...

    @abc.abstractmethod
    def _do_append(self, record: Record) -> None: ...

    @abc.abstractmethod
    def _do_ingest(self, record: Record) -> bool: ...

    @abc.abstractmethod
    def _do_replace_all(self, records: Sequence[Record]) -> None: ...

    @abc.abstractmethod
    def _transaction(self) -> ContextManager[StoreTransaction]: ...


__all__ = ["Record", "StoreBackend", "StoreError", "StoreTransaction", "Validator"]
