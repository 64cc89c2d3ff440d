"""Artifact comparison and the CI regression gate.

:func:`compare_artifacts` joins two :class:`~repro.bench.artifact.
BenchArtifact` objects on scenario id and computes total and per-phase
slowdown ratios.  :func:`gate` turns a comparison into a pass/fail
verdict with configurable thresholds:

* a scenario **fails** when its candidate/baseline runtime ratio is
  *strictly greater* than ``threshold`` (a ratio exactly at the
  threshold still passes — "no worse than Nx" is inclusive);
* improvements (ratio < 1) always pass;
* scenarios present in the baseline but missing from the candidate fail
  (a benchmark that silently stopped running is a regression too);
  scenarios only in the candidate are reported but do not fail;
* sub-measurement-noise scenarios are exempt: when both sides run
  faster than ``min_seconds`` the ratio is meaningless and the scenario
  passes unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.artifact import BenchArtifact

#: Runtimes below this are treated as measurement noise by the gate.
DEFAULT_MIN_SECONDS = 0.05

#: Default slowdown tolerance (candidate may be up to 1.5x the baseline).
DEFAULT_THRESHOLD = 1.5


@dataclass
class ScenarioDelta:
    """Runtime delta of one scenario present in both artifacts."""

    scenario_id: str
    baseline_seconds: float
    candidate_seconds: float
    phase_ratios: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Candidate/baseline runtime ratio (>1 means slower)."""
        if self.baseline_seconds <= 0.0:
            return float("inf") if self.candidate_seconds > 0.0 else 1.0
        return self.candidate_seconds / self.baseline_seconds

    @property
    def speedup(self) -> float:
        """Baseline/candidate ratio (>1 means the candidate got faster)."""
        ratio = self.ratio
        if ratio == 0.0:
            return float("inf")
        return 1.0 / ratio


@dataclass
class Comparison:
    """Join of two artifacts on scenario id."""

    baseline_label: str
    candidate_label: str
    deltas: List[ScenarioDelta] = field(default_factory=list)
    missing_in_candidate: List[str] = field(default_factory=list)
    only_in_candidate: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "scenarios": [
                {
                    "id": delta.scenario_id,
                    "baseline_seconds": delta.baseline_seconds,
                    "candidate_seconds": delta.candidate_seconds,
                    "ratio": delta.ratio,
                    "phase_ratios": dict(delta.phase_ratios),
                }
                for delta in self.deltas
            ],
            "missing_in_candidate": list(self.missing_in_candidate),
            "only_in_candidate": list(self.only_in_candidate),
        }


def compare_artifacts(baseline: BenchArtifact, candidate: BenchArtifact) -> Comparison:
    """Join two artifacts on scenario id and compute slowdown ratios."""
    comparison = Comparison(
        baseline_label=baseline.label, candidate_label=candidate.label
    )
    baseline_ids = set(baseline.scenario_ids())
    comparison.only_in_candidate = [
        sid for sid in candidate.scenario_ids() if sid not in baseline_ids
    ]
    for record in baseline.records:
        sid = record.scenario.scenario_id
        other = candidate.record_for(sid)
        if other is None:
            comparison.missing_in_candidate.append(sid)
            continue
        phase_ratios: Dict[str, float] = {}
        for phase, base_seconds in record.phase_seconds.items():
            cand_seconds = other.phase_seconds.get(phase)
            if cand_seconds is None or base_seconds <= 0.0:
                continue
            phase_ratios[phase] = cand_seconds / base_seconds
        comparison.deltas.append(
            ScenarioDelta(
                scenario_id=sid,
                baseline_seconds=record.best_seconds,
                candidate_seconds=other.best_seconds,
                phase_ratios=phase_ratios,
            )
        )
    return comparison


@dataclass
class GateResult:
    """Verdict of the regression gate."""

    passed: bool
    threshold: float
    failures: List[str] = field(default_factory=list)
    comparison: Optional[Comparison] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "threshold": self.threshold,
            "failures": list(self.failures),
            "comparison": self.comparison.as_dict() if self.comparison else None,
        }


def gate(
    baseline: BenchArtifact,
    candidate: BenchArtifact,
    threshold: float = DEFAULT_THRESHOLD,
    phase_threshold: Optional[float] = None,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> GateResult:
    """Fail when any shared scenario slowed down beyond ``threshold``.

    Parameters
    ----------
    threshold:
        Maximum tolerated total-runtime ratio (inclusive).
    phase_threshold:
        Optional per-phase ratio ceiling; phases whose baseline share is
        below ``min_seconds`` are skipped as noise.
    min_seconds:
        Noise floor: scenarios where both sides are faster than this
        pass unconditionally.
    """
    # NaN compares false both ways, so it would pass every ratio.
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    if phase_threshold is not None and not (
        math.isfinite(phase_threshold) and phase_threshold > 0.0
    ):
        raise ValueError(f"phase_threshold must be finite and > 0, got {phase_threshold}")
    if not (math.isfinite(min_seconds) and min_seconds >= 0.0):
        raise ValueError(f"min_seconds must be finite and >= 0, got {min_seconds}")
    comparison = compare_artifacts(baseline, candidate)
    failures: List[str] = []
    for sid in comparison.missing_in_candidate:
        failures.append(f"{sid}: present in baseline but missing from candidate")
    for delta in comparison.deltas:
        noise = (
            delta.baseline_seconds < min_seconds and delta.candidate_seconds < min_seconds
        )
        if noise:
            continue
        if delta.ratio > threshold:
            failures.append(
                f"{delta.scenario_id}: {delta.candidate_seconds:.3f}s vs "
                f"{delta.baseline_seconds:.3f}s baseline "
                f"({delta.ratio:.2f}x > {threshold:.2f}x allowed)"
            )
            continue
        if phase_threshold is not None:
            base = baseline.record_for(delta.scenario_id)
            for phase, ratio in sorted(delta.phase_ratios.items()):
                base_seconds = base.phase_seconds.get(phase, 0.0) if base else 0.0
                if base_seconds < min_seconds:
                    continue
                if ratio > phase_threshold:
                    failures.append(
                        f"{delta.scenario_id}: phase {phase} slowed "
                        f"{ratio:.2f}x > {phase_threshold:.2f}x allowed"
                    )
    return GateResult(
        passed=not failures,
        threshold=threshold,
        failures=failures,
        comparison=comparison,
    )


def format_comparison(comparison: Comparison) -> str:
    """Human-readable comparison table."""
    lines = [
        f"baseline  : {comparison.baseline_label}",
        f"candidate : {comparison.candidate_label}",
        f"{'scenario':<60} {'base (s)':>9} {'cand (s)':>9} {'ratio':>7}",
    ]
    for delta in comparison.deltas:
        lines.append(
            f"{delta.scenario_id:<60} {delta.baseline_seconds:>9.3f} "
            f"{delta.candidate_seconds:>9.3f} {delta.ratio:>6.2f}x"
        )
    for sid in comparison.missing_in_candidate:
        lines.append(f"{sid:<60} {'--':>9} {'missing':>9} {'--':>7}")
    for sid in comparison.only_in_candidate:
        lines.append(f"{sid:<60} {'new':>9} {'--':>9} {'--':>7}")
    return "\n".join(lines)
