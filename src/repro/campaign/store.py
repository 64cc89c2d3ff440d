"""Checkpointed campaign result store over a pluggable storage backend.

One record per completed cell, durably appended the moment the cell
finishes, so a campaign killed at any point loses at most the cell that
was in flight.  Records are content-addressed by the cell's
:meth:`~repro.campaign.spec.CampaignCell.fingerprint`; on resume the
runner skips every fingerprint already present, which makes the resumed
run bit-identical to an uninterrupted one (the flow itself is
deterministic per seed and executor-independent).

The on-disk format is pluggable (:mod:`repro.store`): stores are
addressed by URI — ``jsonl:path`` (the zero-dep default, with
kill-mid-append tolerance, strict corruption rules and byte-identical
merge semantics) or ``sqlite:path`` (WAL mode, transactional upserts,
safe true-concurrent writers) — and opened with
:meth:`CampaignStore.open`; bare paths infer ``jsonl``.  Reports built
over either driver are byte-identical: the storage layer round-trips
records value-exactly and every report order derives from the cells,
not the file.

Duplicate fingerprints keep the **first** record (completed cells are
never re-executed, so a duplicate can only come from concurrent
writers; keeping the first matches what a resume would have skipped).

:meth:`CampaignStore.merge` unions N shard stores by cell fingerprint
into one store — the distributed aggregation step that lets n CI jobs
each run one ``--shard i/n`` into its own file.  Conflicting results
for the same fingerprint (same cell, different deterministic content)
are an error; equal duplicates collapse to one record.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.spec import CampaignCell, CampaignError
from repro.store import StoreBackend, StoreError, StoreTransaction, open_store

#: Version of the record schema; bump on breaking layout changes.
STORE_SCHEMA_VERSION = 1

#: Prefix/suffix of default store file names (``CAMPAIGN_<name>.jsonl``).
STORE_PREFIX = "CAMPAIGN_"
STORE_SUFFIX = ".jsonl"


class CampaignStoreError(CampaignError, StoreError):
    """A campaign store is structurally invalid or addressed incorrectly."""


def default_store_path(name: str, directory: str = ".") -> str:
    """Canonical store path ``<directory>/CAMPAIGN_<name>.jsonl``.

    Sanitising the name can collide (``a/b`` and ``a:b`` both map to
    ``a-b``); whenever sanitisation changed the name, a short hash of
    the *original* name is appended so two distinct campaigns can never
    silently share one checkpoint file.
    """
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in name)
    if safe != name:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
        safe = f"{safe}-{digest}"
    return os.path.join(directory, f"{STORE_PREFIX}{safe}{STORE_SUFFIX}")


def validate_record(record: object) -> Dict[str, object]:
    """Structural validation of one store record (raises on mismatch)."""
    if not isinstance(record, dict):
        raise CampaignStoreError("store record must be a JSON object")
    version = record.get("schema_version")
    if not isinstance(version, int):
        raise CampaignStoreError("store record is missing an integer 'schema_version'")
    if version > STORE_SCHEMA_VERSION:
        raise CampaignStoreError(
            f"store record schema version {version} is newer than supported "
            f"{STORE_SCHEMA_VERSION}"
        )
    fingerprint = record.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise CampaignStoreError("store record is missing its 'fingerprint'")
    cell = record.get("cell")
    if not isinstance(cell, dict):
        raise CampaignStoreError("store record is missing its 'cell' object")
    try:
        declared = CampaignCell.from_dict(cell)
    except (CampaignError, TypeError, ValueError) as error:
        raise CampaignStoreError(f"store record has an invalid cell: {error}") from None
    if declared.fingerprint() != fingerprint:
        raise CampaignStoreError(
            f"record fingerprint {fingerprint!r} does not match its cell "
            f"parameters ({declared.fingerprint()!r})"
        )
    if not isinstance(record.get("result"), dict):
        raise CampaignStoreError("store record is missing its 'result' object")
    return record


def open_campaign_backend(uri: str) -> StoreBackend:
    """Open a :mod:`repro.store` backend configured for campaign records."""
    return open_store(uri, validator=validate_record, error=CampaignStoreError)


class CampaignStore:
    """Campaign result store: a thin domain layer over a store backend.

    The store is cheap to construct — nothing is read until
    :meth:`load` / :meth:`fingerprints` — and safe to point at a path
    that does not exist yet (an empty campaign).

    Construct with :meth:`open` and a store URI (``jsonl:path``,
    ``sqlite:path``, or a bare path inferring ``jsonl``).
    """

    def __init__(self, backend: StoreBackend) -> None:
        self.backend = backend

    @classmethod
    def open(cls, uri: str) -> "CampaignStore":
        """Open the campaign store addressed by a store URI."""
        return cls(backend=open_campaign_backend(str(uri)))

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Filesystem path of the backing store file."""
        return self.backend.path

    @property
    def uri(self) -> str:
        """The ``driver:path`` URI addressing this store."""
        return self.backend.uri

    def exists(self) -> bool:
        return self.backend.exists()

    def close(self) -> None:
        self.backend.close()

    def load(self) -> Dict[str, Dict[str, object]]:
        """All records keyed by cell fingerprint (first write wins)."""
        return self.backend.load()

    def history(self) -> List[Dict[str, object]]:
        """Every appended record in append order (duplicates included)."""
        return self.backend.history()

    def fingerprints(self) -> Set[str]:
        """Fingerprints of all completed cells."""
        return self.backend.fingerprints()

    def records_in_order(self) -> List[Dict[str, object]]:
        """Records sorted by their cells' deterministic expansion order."""
        records = list(self.load().values())
        records.sort(key=_record_sort_key)
        return records

    # ------------------------------------------------------------------
    def transaction(self) -> ContextManager[StoreTransaction]:
        """Exclusive read-check-append critical section on this store.

        Advisory ``<path>.lock`` sidecar for the JSONL driver,
        ``BEGIN IMMEDIATE`` for SQLite — either way, two concurrent
        publishers cannot interleave between checking a fingerprint and
        appending its record.
        """
        return self.backend.transaction()

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one completed-cell record (validate, write, sync)."""
        self.backend.append(record)

    # ------------------------------------------------------------------
    @classmethod
    def merge(
        cls, output_uri: str, input_uris: Sequence[str]
    ) -> "MergeSummary":
        """Union N shard stores into the store addressed by ``output_uri``.

        Records are keyed by cell fingerprint.  Two records for the same
        fingerprint with equal deterministic content (cell parameters +
        result payload; the wall-clock envelope is ignored) collapse to
        the first occurrence; *conflicting* content raises
        :class:`CampaignStoreError` — the same cell can never honestly
        produce two different results, so a conflict means one input is
        wrong and silently keeping either would corrupt the report.

        Inputs and output are store URIs and may mix drivers freely.
        The output is written atomically (temp file + rename for JSONL,
        one transaction for SQLite) in the cells' deterministic
        expansion order, so a report built from the merged store is
        byte-identical to one built from a single unsharded run of the
        same spec.
        """
        if not input_uris:
            raise CampaignStoreError("merge needs at least one input store")
        merged: Dict[str, Dict[str, object]] = {}
        origin: Dict[str, str] = {}
        n_duplicates = 0
        per_input: List[Tuple[str, int]] = []
        for uri in input_uris:
            store = cls.open(uri)
            if not store.exists():
                raise CampaignStoreError(
                    f"campaign store {store.path!r} does not exist"
                )
            records = store.load()
            per_input.append((str(uri), len(records)))
            for fingerprint, record in records.items():
                existing = merged.get(fingerprint)
                if existing is not None:
                    if deterministic_content(existing) != deterministic_content(record):
                        raise CampaignStoreError(
                            f"conflicting results for cell fingerprint "
                            f"{fingerprint!r}: {origin[fingerprint]!r} and "
                            f"{uri!r} disagree on its deterministic content"
                        )
                    n_duplicates += 1
                    continue
                merged[fingerprint] = record
                origin[fingerprint] = str(uri)
        ordered = sorted(merged.values(), key=_record_sort_key)
        output = cls.open(output_uri)
        output.backend.replace_all(ordered)
        return MergeSummary(
            output=output.path,
            n_records=len(ordered),
            n_duplicates=n_duplicates,
            per_input=per_input,
        )


@dataclass
class MergeSummary:
    """What one :meth:`CampaignStore.merge` call produced.

    Attributes
    ----------
    output:
        Path of the merged store.
    n_records:
        Distinct cell records in the merged store.
    n_duplicates:
        Records dropped because an earlier input already carried an
        identical record for the same fingerprint.
    per_input:
        ``(uri, n_records)`` of every input store, in argument order.
    """

    output: str
    n_records: int
    n_duplicates: int
    per_input: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def n_inputs(self) -> int:
        return len(self.per_input)

    def as_dict(self) -> Dict[str, object]:
        return {
            "output": self.output,
            "n_records": self.n_records,
            "n_duplicates": self.n_duplicates,
            "n_inputs": self.n_inputs,
            "inputs": [
                {"path": path, "n_records": count} for path, count in self.per_input
            ],
        }


def deterministic_content(record: Dict[str, object]) -> str:
    """Canonical serialisation of a record's result-bearing fields.

    Only the cell parameters and the result payload count — the envelope
    (``runtime_seconds``, ``completed_unix``) is wall-clock and differs
    between honest re-runs of the same cell.
    """
    return json.dumps(
        {"cell": record["cell"], "result": record["result"]},
        sort_keys=True,
        separators=(",", ":"),
    )


def _record_sort_key(record: Dict[str, object]) -> Tuple:
    """Deterministic record order: cell expansion order, then fingerprint.

    The fingerprint tiebreaks cells that share a sort key (e.g. the same
    matrix point under two ``design_seed`` values), keeping the merged
    file byte-stable regardless of input order.
    """
    cell = CampaignCell.from_dict(dict(record["cell"]))
    return (cell.sort_key(), str(record["fingerprint"]))


def make_record(
    cell: CampaignCell,
    result: Dict[str, object],
    runtime_seconds: float,
    completed_unix: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble one store record.

    ``result`` must contain only deterministic quantities (the report is
    built from it and must be bit-identical across resumed runs);
    wall-clock lives in the record envelope instead.
    """
    import time

    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "fingerprint": cell.fingerprint(),
        "cell": cell.as_dict(),
        "result": dict(result),
        "runtime_seconds": float(runtime_seconds),
        "completed_unix": float(time.time() if completed_unix is None else completed_unix),
    }
