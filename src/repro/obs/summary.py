"""Trace-file analysis: per-cell/per-phase breakdowns, slowest spans,
Chrome trace export.

The renderers behind ``repro trace summary|top|export``:

* :func:`load_trace` parses and schema-validates a JSONL trace file
  (tolerating only the classic kill-mid-write artefact: an unparseable
  final line in a file that does not end with a newline).
* :func:`summarize_trace` folds the ``engine.phase`` spans into
  :class:`PhaseRow` s keyed by ``(cell, phase)``.  *Wall* seconds are
  the phase spans' durations (the seconds the engine records per phase,
  so the summary total agrees with the sum of
  :meth:`~repro.core.results.FlowResult.phase_seconds`); *work* seconds
  sum the matching ``engine.chunk`` spans — on parallel executors work
  exceeds wall (that is the speedup), serially they are nearly equal.
  ``self`` is the wall clock not covered by chunk work (cache lookups,
  chunk assembly, result reduction), clamped at zero for parallel runs.
* :func:`top_spans` ranks the slowest spans (default: all names) —
  the "which chunk stalled" view.
* :func:`export_chrome` converts a trace into the Chrome trace-event
  JSON consumed by ``chrome://tracing`` and Perfetto.

Rows and cells keep **first-appearance order**: events are appended in
execution order, so phases come out in flow order and cells in campaign
execution order without this module having to know either.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import TRACE_SCHEMA_VERSION, TraceError

#: Placeholder cell label for spans recorded outside any campaign cell.
NO_CELL = "-"

#: Span names the summary aggregates.
PHASE_SPAN = "engine.phase"
CHUNK_SPAN = "engine.chunk"


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse and validate one JSONL trace file.

    A malformed **final** line is ignored silently only when the file
    does not end with a newline (events and their terminating newline
    are written together, so only an interrupted append can leave
    that artefact); malformed content anywhere else raises
    :class:`TraceError`.
    """
    if not os.path.exists(path):
        raise TraceError(f"trace file {path!r} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise TraceError(f"cannot read trace {path!r}: {error}") from error
    lines = text.split("\n")
    newline_terminated = text.endswith("\n")
    while lines and lines[-1] == "":
        lines.pop()
    events: List[Dict[str, Any]] = []
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = _validate_event(json.loads(line))
        except (json.JSONDecodeError, TraceError) as error:
            if position == len(lines) - 1 and not newline_terminated:
                break
            raise TraceError(
                f"trace {path!r} line {position + 1} is corrupt: {error}"
            ) from None
        events.append(event)
    return events


def _validate_event(event: object) -> Dict[str, Any]:
    if not isinstance(event, dict):
        raise TraceError("trace event must be a JSON object")
    version = event.get("v")
    if not isinstance(version, int):
        raise TraceError("trace event is missing an integer schema version 'v'")
    if version > TRACE_SCHEMA_VERSION:
        raise TraceError(
            f"trace event schema version {version} is newer than supported "
            f"{TRACE_SCHEMA_VERSION}"
        )
    if not isinstance(event.get("type"), str):
        raise TraceError("trace event is missing its string 'type'")
    if event["type"] == "span":
        if not isinstance(event.get("name"), str):
            raise TraceError("span event is missing its 'name'")
        if not isinstance(event.get("span"), str):
            raise TraceError("span event is missing its 'span' id")
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0.0:
            raise TraceError("span event needs a non-negative 'dur'")
    return event


def span_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The span events of a trace, in file order."""
    return [event for event in events if event.get("type") == "span"]


def _attr(event: Dict[str, Any], key: str, default: str) -> str:
    attrs = event.get("attrs")
    if isinstance(attrs, dict) and key in attrs:
        return str(attrs[key])
    return default


# ----------------------------------------------------------------------
# Per-cell / per-phase summary
# ----------------------------------------------------------------------
@dataclass
class PhaseRow:
    """Aggregated timing of one ``(cell, phase)`` pair."""

    cell: str
    phase: str
    n_spans: int = 0
    wall_seconds: float = 0.0
    work_seconds: float = 0.0
    n_chunks: int = 0

    @property
    def self_seconds(self) -> float:
        """Wall clock not covered by chunk work (clamped at zero: on
        parallel executors the chunks' summed work exceeds the wall)."""
        return max(0.0, self.wall_seconds - self.work_seconds)

    def as_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell,
            "phase": self.phase,
            "n_spans": self.n_spans,
            "wall_seconds": self.wall_seconds,
            "work_seconds": self.work_seconds,
            "self_seconds": self.self_seconds,
            "n_chunks": self.n_chunks,
        }


@dataclass
class TraceSummary:
    """The per-cell/per-phase breakdown of one trace."""

    rows: List[PhaseRow] = field(default_factory=list)
    n_events: int = 0
    n_spans: int = 0

    @property
    def total_wall_seconds(self) -> float:
        """Summed phase wall clock — comparable to the sum of
        :meth:`repro.core.results.FlowResult.phase_seconds`."""
        return float(sum(row.wall_seconds for row in self.rows))

    def cell_seconds(self) -> Dict[str, float]:
        """Per-cell wall totals, in first-appearance order."""
        totals: Dict[str, float] = {}
        for row in self.rows:
            totals[row.cell] = totals.get(row.cell, 0.0) + row.wall_seconds
        return totals

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "n_events": self.n_events,
            "n_spans": self.n_spans,
            "total_wall_seconds": self.total_wall_seconds,
            "cell_seconds": self.cell_seconds(),
            "rows": [row.as_dict() for row in self.rows],
        }


def summarize_trace(events: List[Dict[str, Any]]) -> TraceSummary:
    """Fold a trace's engine spans into a :class:`TraceSummary`."""
    spans = span_events(events)
    rows: Dict[tuple, PhaseRow] = {}
    for event in spans:
        if event["name"] != PHASE_SPAN:
            continue
        key = (_attr(event, "cell", NO_CELL), _attr(event, "phase", event["name"]))
        row = rows.get(key)
        if row is None:
            row = rows[key] = PhaseRow(cell=key[0], phase=key[1])
        row.n_spans += 1
        row.wall_seconds += float(event["dur"])
    for event in spans:
        if event["name"] != CHUNK_SPAN:
            continue
        key = (_attr(event, "cell", NO_CELL), _attr(event, "phase", NO_CELL))
        row = rows.get(key)
        if row is None:
            # A chunk with no surrounding phase span (foreign trace);
            # surface it as its own row rather than dropping the time.
            row = rows[key] = PhaseRow(cell=key[0], phase=key[1])
        row.work_seconds += float(event["dur"])
        row.n_chunks += 1
    return TraceSummary(
        rows=list(rows.values()), n_events=len(events), n_spans=len(spans)
    )


def format_summary(summary: TraceSummary) -> str:
    """Plain-text rendering of a :class:`TraceSummary`."""
    cell_width = max([12] + [len(row.cell) for row in summary.rows]) + 2
    lines = [
        f"{'cell':<{cell_width}}{'phase':<18}{'spans':>6}{'chunks':>8}"
        f"{'wall s':>10}{'work s':>10}{'self s':>10}"
    ]
    for row in summary.rows:
        lines.append(
            f"{row.cell:<{cell_width}}{row.phase:<18}{row.n_spans:>6}{row.n_chunks:>8}"
            f"{row.wall_seconds:>10.3f}{row.work_seconds:>10.3f}"
            f"{row.self_seconds:>10.3f}"
        )
    cells = summary.cell_seconds()
    if len(cells) > 1:
        lines.append("")
        for cell, seconds in cells.items():
            lines.append(
                f"{cell:<{cell_width + 18}}{'cell total':>14}{seconds:>10.3f}"
            )
    lines.append("")
    lines.append(
        f"total wall {summary.total_wall_seconds:.3f} s over "
        f"{summary.n_spans} span(s), {summary.n_events} event(s)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Slowest spans
# ----------------------------------------------------------------------
def top_spans(
    events: List[Dict[str, Any]], count: int = 10, name: Optional[str] = None
) -> List[Dict[str, Any]]:
    """The ``count`` slowest spans, optionally filtered by span name."""
    spans = span_events(events)
    if name is not None:
        spans = [event for event in spans if event["name"] == name]
    spans.sort(key=lambda event: (-float(event["dur"]), str(event["span"])))
    return spans[: max(0, int(count))]


def format_top(spans: List[Dict[str, Any]]) -> str:
    """Plain-text rendering of :func:`top_spans` output."""
    lines = [f"{'dur s':>10}  {'name':<16}{'pid':>8}  attrs"]
    for event in spans:
        attrs = event.get("attrs") or {}
        rendered = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        lines.append(
            f"{float(event['dur']):>10.4f}  {event['name']:<16}"
            f"{event.get('pid', 0):>8}  {rendered}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def export_chrome(events: List[Dict[str, Any]]) -> Dict[str, object]:
    """Convert a trace to Chrome trace-event JSON (``chrome://tracing``).

    Timestamps are re-based to the earliest event so the viewer opens
    at zero instead of at the Unix epoch.
    """
    spans = span_events(events)
    t0 = min((float(event["ts"]) for event in spans), default=0.0)
    trace_events = []
    for event in spans:
        trace_events.append(
            {
                "name": event["name"],
                "ph": "X",
                "ts": (float(event["ts"]) - t0) * 1e6,
                "dur": float(event["dur"]) * 1e6,
                "pid": int(event.get("pid", 0)),
                "tid": int(event.get("tid", event.get("pid", 0))),
                "args": event.get("attrs") or {},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
