"""Cross-run campaign trends: per-cell series out of a store's history.

A single campaign store holds one record per cell fingerprint — but its
*history* (every append, duplicates included) holds one record per
**run**: the same cell completed on different nights carries identical
deterministic content and a fresh wall-clock envelope.  This module
turns that history into per-cell series — runtime trajectory night over
night, yield (constant for a healthy deterministic cell — a moving
yield is itself a red flag).

The series machinery is :mod:`repro.store.series`, shared with
:mod:`repro.bench.trend`.  :func:`ingest_stores` folds the records of N
stores (e.g. each night's downloaded ``CAMPAIGN_smoke.jsonl``
artifact) into one long-lived trend store.  Ingestion is idempotent —
re-ingesting a file adds nothing — and works on any driver, but the
SQLite driver is the natural home: its ``history`` table keeps every
ingested envelope as an indexed row.  :func:`build_trend` returns the
plain dict that ``repro campaign trend --json`` prints, which
:func:`format_trend` renders as text.

CLI surface: ``repro campaign trend --store URI [--ingest URI ...]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.campaign.spec import CampaignCell
from repro.campaign.store import CampaignStore, CampaignStoreError
from repro.store import Record
from repro.store.series import Entry, first_to_last, format_series, ingest, series_view


def _as_float(value: object) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _as_int(value: object) -> Optional[int]:
    return int(value) if isinstance(value, int) else None


def _cell(record: Record) -> CampaignCell:
    return CampaignCell.from_dict(dict(record["cell"]))


def ingest_stores(store: CampaignStore, input_uris: List[str]) -> int:
    """Fold the records of N stores into ``store``'s history (idempotent).

    Returns the number of records that were actually new.  Conflict
    detection is deliberately *not* applied here: two nights of the
    same cell legitimately differ in their envelopes, and even a
    deterministic-content drift is exactly what the trend view exists
    to make visible (``repro campaign compare`` is the gate for it).
    """
    return ingest(
        store.backend,
        (record for uri in input_uris for record in CampaignStore.open(uri).history()),
    )


def _point(record: Record) -> Entry:
    result = dict(record.get("result") or {})
    return {
        "completed_unix": _as_float(record.get("completed_unix")),
        "runtime_seconds": _as_float(record.get("runtime_seconds")),
        "improved_yield": _as_float(result.get("improved_yield")),
        "n_buffers": _as_int(result.get("n_buffers")),
    }


def _completed(record: Record) -> float:
    completed = _as_float(record.get("completed_unix"))
    return float("-inf") if completed is None else completed


def build_trend(store: CampaignStore, cell_id: Optional[str] = None) -> Dict[str, object]:
    """Per-cell series from the store's append history, as ``--json`` prints them.

    Cells appear in their deterministic expansion order; each cell's
    points are sorted by completion time (append order breaking ties).
    ``cell_id`` restricts the view to one cell; an id with no record in
    the store raises :class:`~repro.campaign.store.CampaignStoreError`,
    so a misspelt filter is not read as an empty history.
    """
    trend = series_view(
        store.backend,
        "cells",
        (
            record
            for record in store.history()
            if cell_id is None or _cell(record).cell_id == cell_id
        ),
        key=lambda record: str(record["fingerprint"]),
        order=lambda record: (_cell(record).sort_key(), str(record["fingerprint"])),
        when=_completed,
        point=_point,
        describe=lambda record, points: {
            "cell_id": _cell(record).cell_id,
            "fingerprint": str(record["fingerprint"]),
        },
    )
    if cell_id is not None and not trend["cells"]:
        raise CampaignStoreError(f"cell {cell_id!r} is not in campaign store {store.uri}")
    return trend


def _line(cell: Entry) -> str:
    points = cell["points"]
    runtimes = [p["runtime_seconds"] for p in points if p["runtime_seconds"] is not None]
    yields = [p["improved_yield"] for p in points if p["improved_yield"] is not None]
    runtime = f"runtime {first_to_last(runtimes, 2)}" if runtimes else "runtime -"
    if not yields:
        value = "Y -"
    else:
        lo, hi = min(yields), max(yields)
        value = f"Y {100 * lo:.2f}%" if lo == hi else f"Y {100 * lo:.2f}%..{100 * hi:.2f}% (UNSTABLE)"
    return f"{cell['cell_id']}: {cell['n_points']} run(s), {value}, {runtime}"


def format_trend(trend: Dict[str, object]) -> str:
    """Plain-text rendering: one line per cell, series summarised."""
    return format_series(trend, "cells", _line)


__all__ = ["build_trend", "format_trend", "ingest_stores"]
