"""Retention policies over any store backend (dry-run first).

Content-addressed stores — the shared result pool above all — only ever
grow: every campaign publishes into them and nothing is ever deleted.
:func:`plan_gc` turns a retention policy (maximum record age, maximum
record count, or both) into an explicit :class:`GCPlan` *without
touching the store*; :func:`apply_gc` then executes the plan as one
atomic :meth:`~repro.store.base.StoreBackend.replace_all`.  The CLI
(``repro pool gc``) is dry-run by default and only applies with an
explicit ``--apply``.

Age is judged by the record envelope's ``completed_unix`` (wall-clock
bookkeeping deliberately outside the deterministic payload); records
without one are treated as infinitely old, so malformed envelopes are
the first thing a retention pass surfaces.  The count policy keeps the
*newest* records; ties (equal timestamps) break on the fingerprint so
the same store and policy always produce the same plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.store.base import Record, StoreBackend

#: Seconds per day (the CLI's ``--max-age-days`` unit).
_DAY_SECONDS = 86_400.0


@dataclass
class GCPlan:
    """What one retention pass would (or did) do.

    ``kept``/``dropped`` hold fingerprints; ``dropped_ages`` maps every
    dropped fingerprint to its age in days at planning time (records
    without a ``completed_unix`` envelope report ``None``).
    """

    store: str
    n_records: int
    max_age_days: Optional[float]
    keep_newest: Optional[int]
    kept: List[str] = field(default_factory=list)
    dropped: List[str] = field(default_factory=list)
    dropped_ages: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def n_kept(self) -> int:
        return len(self.kept)

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)

    def as_dict(self) -> Dict[str, object]:
        return {
            "store": self.store,
            "n_records": self.n_records,
            "n_kept": self.n_kept,
            "n_dropped": self.n_dropped,
            "max_age_days": self.max_age_days,
            "keep_newest": self.keep_newest,
            "kept": list(self.kept),
            "dropped": list(self.dropped),
            "dropped_age_days": {
                fingerprint: age for fingerprint, age in sorted(self.dropped_ages.items())
            },
        }


def _completed_unix(record: Record) -> Optional[float]:
    value = record.get("completed_unix")
    if isinstance(value, (int, float)):
        return float(value)
    return None


def plan_gc(
    backend: StoreBackend,
    max_age_days: Optional[float] = None,
    keep_newest: Optional[int] = None,
    now: Optional[float] = None,
) -> GCPlan:
    """Plan (but do not execute) a retention pass over ``backend``.

    ``max_age_days`` drops records completed longer ago than that;
    ``keep_newest`` then caps the survivors to the N most recent.  With
    neither policy the plan keeps everything (a pure inventory pass).
    """
    # NaN compares false both ways, so it would keep every record.
    if max_age_days is not None and not (math.isfinite(max_age_days) and max_age_days >= 0):
        raise ValueError(f"max_age_days must be finite and >= 0, got {max_age_days}")
    if keep_newest is not None and keep_newest < 0:
        raise ValueError(f"keep_newest must be >= 0, got {keep_newest}")
    now = time.time() if now is None else float(now)
    records = backend.load()

    def age_days(record: Record) -> Optional[float]:
        completed = _completed_unix(record)
        if completed is None:
            return None
        return (now - completed) / _DAY_SECONDS

    # Newest first; missing timestamps sort as infinitely old, so they
    # are the first candidates for both policies.
    def recency_key(item: Tuple[str, Record]) -> Tuple[float, str]:
        fingerprint, record = item
        completed = _completed_unix(record)
        return (float("-inf") if completed is None else completed, fingerprint)

    ordered = sorted(records.items(), key=recency_key, reverse=True)
    kept: List[str] = []
    dropped: List[str] = []
    ages: Dict[str, Optional[float]] = {}
    for rank, (fingerprint, record) in enumerate(ordered):
        age = age_days(record)
        too_old = max_age_days is not None and (age is None or age > max_age_days)
        over_count = keep_newest is not None and rank >= keep_newest
        if too_old or over_count:
            dropped.append(fingerprint)
            ages[fingerprint] = age
        else:
            kept.append(fingerprint)
    return GCPlan(
        store=backend.uri,
        n_records=len(records),
        max_age_days=max_age_days,
        keep_newest=keep_newest,
        kept=kept,
        dropped=dropped,
        dropped_ages=ages,
    )


def apply_gc(backend: StoreBackend, plan: GCPlan) -> int:
    """Execute a plan: atomically rewrite the store to the kept records.

    Records are re-read at apply time and written in the store's
    current first-wins order (not the plan's recency order), so the
    surviving file keeps its original record ordering.  Returns the
    number of records actually dropped.
    """
    if not plan.dropped:
        return 0
    records = backend.load()
    keep = set(plan.kept)
    survivors = [record for fingerprint, record in records.items() if fingerprint in keep]
    backend.replace_all(survivors)
    return len(records) - len(survivors)


def format_gc_plan(plan: GCPlan, applied: bool = False) -> str:
    """Human-readable rendering of a plan (the CLI's default output)."""
    verb = "dropped" if applied else "would drop"
    policy_bits = []
    if plan.max_age_days is not None:
        policy_bits.append(f"max age {plan.max_age_days:g} days")
    if plan.keep_newest is not None:
        policy_bits.append(f"keep newest {plan.keep_newest}")
    policy = ", ".join(policy_bits) if policy_bits else "no policy (inventory only)"
    lines = [
        f"store     : {plan.store}",
        f"policy    : {policy}",
        f"records   : {plan.n_records} total, {plan.n_kept} kept, "
        f"{plan.n_dropped} {verb}",
    ]
    for fingerprint in plan.dropped:
        age = plan.dropped_ages.get(fingerprint)
        age_text = "age unknown" if age is None else f"{age:.1f} days old"
        lines.append(f"  {verb}: {fingerprint} ({age_text})")
    return "\n".join(lines)


__all__ = ["GCPlan", "apply_gc", "format_gc_plan", "plan_gc"]
