"""Compare/gate threshold semantics."""

import pytest

from repro.bench import (
    BenchArtifact,
    Scenario,
    ScenarioRecord,
    compare_artifacts,
    format_comparison,
    gate,
)


def artifact(label: str, seconds_by_sigma, phase_scale: float = 1.0) -> BenchArtifact:
    records = [
        ScenarioRecord(
            scenario=Scenario(circuit="s9234", scale=0.05, sigma=sigma),
            total_seconds=[seconds],
            phase_seconds={
                "step1_train": seconds * 0.7 * phase_scale,
                "yield_eval": seconds * 0.3 * phase_scale,
            },
        )
        for sigma, seconds in sorted(seconds_by_sigma.items())
    ]
    return BenchArtifact(label=label, suite="unit", records=records)


class TestCompare:
    def test_ratios_and_joins(self):
        baseline = artifact("base", {0.0: 1.0, 1.0: 2.0})
        candidate = artifact("cand", {0.0: 0.5, 2.0: 1.0})
        comparison = compare_artifacts(baseline, candidate)
        assert len(comparison.deltas) == 1
        delta = comparison.deltas[0]
        assert delta.ratio == pytest.approx(0.5)
        assert delta.speedup == pytest.approx(2.0)
        assert delta.phase_ratios["step1_train"] == pytest.approx(0.5)
        assert len(comparison.missing_in_candidate) == 1
        assert len(comparison.only_in_candidate) == 1

    def test_zero_baseline_ratio_is_inf(self):
        baseline = artifact("base", {0.0: 0.0})
        candidate = artifact("cand", {0.0: 1.0})
        delta = compare_artifacts(baseline, candidate).deltas[0]
        assert delta.ratio == float("inf")

    def test_format_mentions_every_bucket(self):
        baseline = artifact("base", {0.0: 1.0, 1.0: 2.0})
        candidate = artifact("cand", {0.0: 0.5, 2.0: 1.0})
        text = format_comparison(compare_artifacts(baseline, candidate))
        assert "missing" in text and "new" in text and "0.50x" in text


class TestGateThresholds:
    def test_improvement_passes(self):
        verdict = gate(artifact("b", {0.0: 1.0}), artifact("c", {0.0: 0.4}), threshold=1.5)
        assert verdict.passed and not verdict.failures

    def test_identical_passes(self):
        base = artifact("b", {0.0: 1.0})
        assert gate(base, artifact("c", {0.0: 1.0}), threshold=1.5).passed

    def test_exact_threshold_passes(self):
        # "no worse than 1.5x" is inclusive: a ratio of exactly 1.5 passes.
        verdict = gate(artifact("b", {0.0: 1.0}), artifact("c", {0.0: 1.5}), threshold=1.5)
        assert verdict.passed

    def test_just_over_threshold_fails(self):
        verdict = gate(artifact("b", {0.0: 1.0}), artifact("c", {0.0: 1.5001}), threshold=1.5)
        assert not verdict.passed
        assert "1.50x allowed" in verdict.failures[0]

    def test_injected_2x_slowdown_detected(self):
        baseline = artifact("b", {0.0: 1.0, 1.0: 2.0})
        slowed = artifact("c", {0.0: 2.0, 1.0: 4.0})
        verdict = gate(baseline, slowed, threshold=1.5)
        assert not verdict.passed
        assert len(verdict.failures) == 2
        assert all("2.00x" in failure for failure in verdict.failures)

    def test_missing_scenario_fails(self):
        baseline = artifact("b", {0.0: 1.0, 1.0: 2.0})
        partial = artifact("c", {0.0: 1.0})
        verdict = gate(baseline, partial, threshold=1.5)
        assert not verdict.passed
        assert any("missing from candidate" in failure for failure in verdict.failures)

    def test_extra_candidate_scenario_does_not_fail(self):
        baseline = artifact("b", {0.0: 1.0})
        extended = artifact("c", {0.0: 1.0, 1.0: 5.0})
        assert gate(baseline, extended, threshold=1.5).passed

    def test_noise_floor_exempts_tiny_runtimes(self):
        # 2 ms vs 40 ms is a 20x "slowdown" but both are measurement noise.
        verdict = gate(
            artifact("b", {0.0: 0.002}), artifact("c", {0.0: 0.040}), threshold=1.5
        )
        assert verdict.passed

    def test_phase_threshold_catches_phase_regression(self):
        baseline = artifact("b", {0.0: 10.0})
        # Same total, but per-phase timings doubled: total gate passes,
        # the per-phase gate must not.
        shifted = artifact("c", {0.0: 10.0}, phase_scale=2.0)
        assert gate(baseline, shifted, threshold=1.5).passed
        verdict = gate(baseline, shifted, threshold=1.5, phase_threshold=1.5)
        assert not verdict.passed
        assert any("phase step1_train" in failure for failure in verdict.failures)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            gate(artifact("b", {0.0: 1.0}), artifact("c", {0.0: 1.0}), threshold=0.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"threshold": float("nan")}, "threshold"),
            ({"threshold": float("inf")}, "threshold"),
            ({"phase_threshold": float("nan")}, "phase_threshold"),
            ({"phase_threshold": float("inf")}, "phase_threshold"),
            ({"phase_threshold": 0.0}, "phase_threshold"),
            ({"min_seconds": float("nan")}, "min_seconds"),
            ({"min_seconds": float("inf")}, "min_seconds"),
            ({"min_seconds": -1.0}, "min_seconds"),
        ],
    )
    def test_non_finite_or_out_of_range_rejected(self, kwargs, name):
        # A NaN threshold compares false both ways: it used to pass a 10x
        # slowdown.  An infinite noise floor exempts every scenario.
        baseline = artifact("b", {0.0: 1.0})
        slower = artifact("c", {0.0: 10.0}, phase_scale=10.0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            gate(baseline, slower, **kwargs)

    def test_verdict_serialises(self):
        verdict = gate(artifact("b", {0.0: 1.0}), artifact("c", {0.0: 2.0}), threshold=1.5)
        data = verdict.as_dict()
        assert data["passed"] is False
        assert data["comparison"]["scenarios"][0]["ratio"] == pytest.approx(2.0)
