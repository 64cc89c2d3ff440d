"""Campaign store diffing and the quality-regression gate.

:func:`compare_stores` joins two campaign result stores on cell
fingerprint — no spec needed, every record embeds its full cell
identity — and computes per-cell yield, period and buffer-count deltas.
:func:`gate_comparison` turns the diff into a pass/fail verdict, the
campaign sibling of ``repro bench compare|gate``:

* a cell **fails** when its tuned yield dropped by strictly more than
  ``max_yield_drop`` percentage points (results are deterministic per
  fingerprint, so any drop is a real behaviour change, but the
  threshold lets a gate tolerate known-noisy replicate cells);
* a cell fails when its buffer count grew by strictly more than
  ``max_buffer_increase`` (more tuning area for the same matrix point);
* cells present in the old store but missing from the new one fail
  (a campaign that silently stopped covering a cell is a regression);
  cells only in the new store are reported but never fail;
* period deltas (target and ``mu``) are reported for context but not
  gated — they characterise the un-tuned circuit, which only moves
  when the timing model itself changes.

The CLI surface is ``repro campaign compare old.jsonl new.jsonl
[--gate]``: exit 0 on pass, 1 on a gated regression, 2 on artifact
errors — mirroring ``bench gate``'s contract so CI treats both alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.report import record_row
from repro.campaign.spec import CampaignCell
from repro.campaign.store import CampaignStore

#: Default tolerated tuned-yield drop, in percentage points (inclusive).
DEFAULT_MAX_YIELD_DROP = 0.5

#: Default tolerated buffer-count increase per cell (inclusive).
DEFAULT_MAX_BUFFER_INCREASE = 0


@dataclass
class CellDelta:
    """Result delta of one cell present in both stores."""

    cell_id: str
    fingerprint: str
    old_yield: float
    new_yield: float
    old_buffers: int
    new_buffers: int
    old_target_period: float
    new_target_period: float
    old_mu_period: float
    new_mu_period: float

    @property
    def yield_delta_points(self) -> float:
        """Tuned-yield change in percentage points (< 0 means worse)."""
        return 100.0 * (self.new_yield - self.old_yield)

    @property
    def buffer_delta(self) -> int:
        """Buffer-count change (> 0 means more tuning area)."""
        return self.new_buffers - self.old_buffers

    @property
    def mu_period_delta(self) -> float:
        return self.new_mu_period - self.old_mu_period

    def as_dict(self) -> Dict[str, object]:
        return {
            "cell_id": self.cell_id,
            "fingerprint": self.fingerprint,
            "old_yield": self.old_yield,
            "new_yield": self.new_yield,
            "yield_delta_points": self.yield_delta_points,
            "old_buffers": self.old_buffers,
            "new_buffers": self.new_buffers,
            "buffer_delta": self.buffer_delta,
            "old_target_period": self.old_target_period,
            "new_target_period": self.new_target_period,
            "old_mu_period": self.old_mu_period,
            "new_mu_period": self.new_mu_period,
            "mu_period_delta": self.mu_period_delta,
        }


@dataclass
class CampaignComparison:
    """Join of two campaign stores on cell fingerprint."""

    old_label: str
    new_label: str
    deltas: List[CellDelta] = field(default_factory=list)
    missing_in_new: List[str] = field(default_factory=list)
    only_in_new: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "old": self.old_label,
            "new": self.new_label,
            "cells": [delta.as_dict() for delta in self.deltas],
            "missing_in_new": list(self.missing_in_new),
            "only_in_new": list(self.only_in_new),
        }


def compare_stores(old: CampaignStore, new: CampaignStore) -> CampaignComparison:
    """Join two stores on cell fingerprint and compute per-cell deltas.

    Cells appear in the old store's deterministic record order; cells
    only in the new store are listed (in the new store's order) but
    carry no delta.
    """
    new_records = new.load()
    comparison = CampaignComparison(old_label=old.path, new_label=new.path)
    old_fingerprints = set()
    for record in old.records_in_order():
        fingerprint = str(record["fingerprint"])
        old_fingerprints.add(fingerprint)
        cell = CampaignCell.from_dict(dict(record["cell"]))
        other = new_records.get(fingerprint)
        if other is None:
            comparison.missing_in_new.append(cell.cell_id)
            continue
        old_row = record_row(cell, record)
        new_row = record_row(cell, other)
        comparison.deltas.append(
            CellDelta(
                cell_id=cell.cell_id,
                fingerprint=fingerprint,
                old_yield=float(old_row["improved_yield"]),
                new_yield=float(new_row["improved_yield"]),
                old_buffers=int(old_row["n_buffers"]),
                new_buffers=int(new_row["n_buffers"]),
                old_target_period=float(old_row["target_period"]),
                new_target_period=float(new_row["target_period"]),
                old_mu_period=float(old_row["mu_period"]),
                new_mu_period=float(new_row["mu_period"]),
            )
        )
    # Computed from the already-loaded mapping (not records_in_order, which
    # would re-read the file) and sorted into the same deterministic order.
    only_in_new = [
        (CampaignCell.from_dict(dict(record["cell"])), str(record["fingerprint"]))
        for record in new_records.values()
        if str(record["fingerprint"]) not in old_fingerprints
    ]
    only_in_new.sort(key=lambda pair: (pair[0].sort_key(), pair[1]))
    comparison.only_in_new = [cell.cell_id for cell, _ in only_in_new]
    return comparison


@dataclass
class CampaignGateResult:
    """Verdict of the campaign quality gate."""

    passed: bool
    max_yield_drop: float
    max_buffer_increase: int
    failures: List[str] = field(default_factory=list)
    comparison: Optional[CampaignComparison] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "max_yield_drop": self.max_yield_drop,
            "max_buffer_increase": self.max_buffer_increase,
            "failures": list(self.failures),
            "comparison": self.comparison.as_dict() if self.comparison else None,
        }


def gate_comparison(
    comparison: CampaignComparison,
    max_yield_drop: float = DEFAULT_MAX_YIELD_DROP,
    max_buffer_increase: int = DEFAULT_MAX_BUFFER_INCREASE,
) -> CampaignGateResult:
    """Fail when any shared cell regressed beyond the thresholds.

    Thresholds are inclusive ("no worse than" passes), matching the
    bench gate's convention.
    """
    # NaN compares false both ways, so it would pass every drop.
    if not (math.isfinite(max_yield_drop) and max_yield_drop >= 0.0):
        raise ValueError(f"max_yield_drop must be finite and >= 0, got {max_yield_drop}")
    if max_buffer_increase < 0:
        raise ValueError(
            f"max_buffer_increase must be >= 0, got {max_buffer_increase}"
        )
    failures: List[str] = []
    for cell_id in comparison.missing_in_new:
        failures.append(f"{cell_id}: present in old store but missing from new")
    for delta in comparison.deltas:
        drop = -delta.yield_delta_points
        if drop > max_yield_drop:
            failures.append(
                f"{delta.cell_id}: yield {100 * delta.new_yield:.2f} % vs "
                f"{100 * delta.old_yield:.2f} % "
                f"({drop:.2f} points > {max_yield_drop:.2f} allowed)"
            )
        if delta.buffer_delta > max_buffer_increase:
            failures.append(
                f"{delta.cell_id}: buffers {delta.new_buffers} vs "
                f"{delta.old_buffers} "
                f"(+{delta.buffer_delta} > +{max_buffer_increase} allowed)"
            )
    return CampaignGateResult(
        passed=not failures,
        max_yield_drop=max_yield_drop,
        max_buffer_increase=max_buffer_increase,
        failures=failures,
        comparison=comparison,
    )


def format_campaign_comparison(comparison: CampaignComparison) -> str:
    """Human-readable per-cell delta table."""
    lines = [
        f"old : {comparison.old_label}",
        f"new : {comparison.new_label}",
        f"{'cell':<44} {'old Y%':>7} {'new Y%':>7} {'dY':>7} {'old Nb':>6} {'new Nb':>6}",
    ]
    for delta in comparison.deltas:
        lines.append(
            f"{delta.cell_id:<44} {100 * delta.old_yield:>7.2f} "
            f"{100 * delta.new_yield:>7.2f} {delta.yield_delta_points:>+7.2f} "
            f"{delta.old_buffers:>6} {delta.new_buffers:>6}"
        )
    for cell_id in comparison.missing_in_new:
        lines.append(f"{cell_id:<44} {'--':>7} {'missing':>7}")
    for cell_id in comparison.only_in_new:
        lines.append(f"{cell_id:<44} {'new':>7} {'--':>7}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_MAX_BUFFER_INCREASE",
    "DEFAULT_MAX_YIELD_DROP",
    "CampaignComparison",
    "CampaignGateResult",
    "CellDelta",
    "compare_stores",
    "format_campaign_comparison",
    "gate_comparison",
]
