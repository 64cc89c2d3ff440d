"""repro.store — pluggable storage backends for result stores.

The storage tier under :mod:`repro.campaign`'s checkpoint stores and
the shared result pool.  Stores hold fingerprint-addressed JSON records
behind one :class:`StoreBackend` contract (append/scan/get/transaction/
merge-rewrite, first-write-wins duplicates, schema-versioned record
envelopes), with two drivers:

* ``jsonl`` — the zero-dependency default: append-only JSONL with
  fsynced appends, kill-mid-append tolerance, corruption detection and
  a ``<path>.lock`` advisory-lock sidecar for concurrent writers;
* ``sqlite`` — SQLite in WAL mode: transactional first-wins upserts
  keyed by fingerprint, true concurrent writers without a lock
  sidecar, an append-history table for cross-run trend queries, and
  indexed scans.

Stores are addressed by URI — ``jsonl:path`` / ``sqlite:path``; bare
paths infer ``jsonl`` so every pre-URI path argument keeps working —
and opened through the stable facade :func:`open_store`::

    from repro.store import open_store

    backend = open_store("sqlite:CAMPAIGN_smoke.sqlite")
    backend.append(record)
    records = backend.load()        # {fingerprint: record}, first wins

:mod:`repro.store.gc` adds retention policies (by age and count) over
any backend, planned dry-run first and applied as one atomic rewrite;
:mod:`repro.store.series` cuts a store's append history into
night-over-night series, the core of ``bench trend`` and
``campaign trend``.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.store.base import (
    Record,
    StoreBackend,
    StoreError,
    StoreTransaction,
    Validator,
)
from repro.store.gc import GCPlan, apply_gc, format_gc_plan, plan_gc
from repro.store.jsonl import JsonlBackend, dump_record
from repro.store.sqlite import SQLITE_SCHEMA_VERSION, SqliteBackend
from repro.store.uri import DEFAULT_DRIVER, DRIVERS, StoreURI, parse_store_uri

#: Driver name -> backend class. Extension point for future drivers
#: (a Postgres driver slots in here without touching any caller).
BACKENDS: Dict[str, Type[StoreBackend]] = {
    JsonlBackend.driver: JsonlBackend,
    SqliteBackend.driver: SqliteBackend,
}


def open_store(
    uri: str,
    validator: Optional[Validator] = None,
    error: Type[StoreError] = StoreError,
) -> StoreBackend:
    """Open the store addressed by ``uri`` with the right driver.

    The stable public entry point: parses the URI (bare paths infer the
    ``jsonl`` driver), looks the driver up in :data:`BACKENDS` and
    constructs its backend.  ``validator``/``error`` configure record
    validation and the exception class structural failures raise —
    domain layers pass their own (e.g. campaign stores validate the
    cell/fingerprint envelope and raise ``CampaignStoreError``).
    """
    try:
        parsed = parse_store_uri(uri)
    except StoreError as parse_error:
        # Re-raise bad addressing as the caller's error class, so domain
        # layers surface one exception type for every store failure.
        raise error(str(parse_error)) from None
    backend_class = BACKENDS[parsed.driver]
    return backend_class(parsed.path, validator=validator, error=error)


__all__ = [
    "BACKENDS",
    "DEFAULT_DRIVER",
    "DRIVERS",
    "GCPlan",
    "JsonlBackend",
    "Record",
    "SQLITE_SCHEMA_VERSION",
    "SqliteBackend",
    "StoreBackend",
    "StoreError",
    "StoreTransaction",
    "StoreURI",
    "Validator",
    "apply_gc",
    "dump_record",
    "format_gc_plan",
    "open_store",
    "parse_store_uri",
    "plan_gc",
]
