"""Night-over-night series out of a store's append history.

The shared core of ``repro bench trend`` and ``repro campaign trend``.
A trend store is any :mod:`repro.store` backend.  :func:`ingest` folds
other runs' records into its history through the idempotent
:meth:`~repro.store.StoreBackend.ingest`, so a cron job can feed every
downloaded nightly artifact without tracking which ones are new.
:func:`series_view` cuts the history into one series per key and
returns the dict that ``--json`` prints; :func:`format_series` renders
that dict as a two-line header and one line per series.  Each trend
module says only what its key, its point and its line are.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Sequence

from repro.store.base import Record, StoreBackend

#: One point of a series, or one series, as the trend dict holds it.
Entry = Dict[str, object]


def ingest(store: StoreBackend, records: Iterable[Record]) -> int:
    """Fold ``records`` into ``store``'s history; the number that were new."""
    return sum(store.ingest(record) for record in records)


def series_view(
    store: StoreBackend,
    noun: str,
    history: Iterable[Record],
    *,
    key: Callable[[Record], Hashable],
    order: Callable[[Record], object],
    when: Callable[[Record], float],
    point: Callable[[Record], Entry],
    describe: Callable[[Record, List[Entry]], Entry],
) -> Dict[str, object]:
    """The trend dict: the store, the counts and one series per ``key``.

    Series are sorted by ``order`` of their first-ingested record and
    listed under ``noun``; each runs by ``when``, ingest order breaking
    ties.  A series is ``describe(first record, points)`` plus its
    ``n_points`` and ``points``.
    """
    grouped: Dict[Hashable, List[Record]] = {}
    for record in history:
        grouped.setdefault(key(record), []).append(record)
    series = []
    for records in sorted(grouped.values(), key=lambda records: order(records[0])):
        points = [point(record) for record in sorted(records, key=when)]
        series.append({**describe(records[0], points), "n_points": len(points), "points": points})
    return {
        "store": store.uri,
        f"n_{noun}": len(series),
        "n_points": sum(entry["n_points"] for entry in series),
        noun: series,
    }


def first_to_last(seconds: Sequence[float], digits: int) -> str:
    """``"<first>s -> <last>s (+x%)"``; the change only when the first is positive."""
    first, last = seconds[0], seconds[-1]
    text = f"{first:.{digits}f}s -> {last:.{digits}f}s"
    if first > 0:
        text += f" ({100.0 * (last - first) / first:+.1f}%)"
    return text


def format_series(view: Dict[str, object], noun: str, line: Callable[[Entry], str]) -> str:
    """Plain text: the store, the counts, then one ``line`` per series."""
    lines = [
        f"store     : {view['store']}",
        f"{noun:<10}: {view[f'n_{noun}']} with {view['n_points']} recorded run(s)",
    ]
    lines.extend(f"  {line(entry)}" for entry in view[noun])
    return "\n".join(lines) + "\n"


__all__ = ["Entry", "first_to_last", "format_series", "ingest", "series_view"]
