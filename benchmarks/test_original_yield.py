"""Benchmark: the original-yield anchor points of Sec. IV.

The paper calibrates its three target periods so that the yields *without*
buffers are approximately 50 %, 84.13 % and 97.72 % (the Gaussian CDF at
0, +1 and +2 sigma).  This benchmark regenerates those anchors for the
suite circuits and asserts they land near the Gaussian values, which
validates the whole statistical-timing substrate (canonical forms, spatial
correlation, clock-period Monte Carlo).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SETTINGS, get_design, run_once
from repro.yieldsim import YieldEstimator

_ANCHORS = {0.0: 0.50, 1.0: 0.8413, 2.0: 0.9772}


def _original_yields(circuit: str):
    design = get_design(circuit)
    estimator = YieldEstimator(design, n_samples=max(SETTINGS.n_eval_samples, 800), rng=19)
    samples = estimator.draw_samples()
    analysis = estimator.period_analysis(samples)
    return {
        sigma: analysis.yield_at(analysis.target_period(sigma), require_hold=False)
        for sigma in _ANCHORS
    }


@pytest.mark.parametrize("circuit", SETTINGS.circuits[: 4 if not SETTINGS.full else None])
def test_original_yield_anchors(benchmark, circuit):
    yields = run_once(benchmark, _original_yields, circuit)
    print(f"\n{circuit}: " + ", ".join(f"muT+{s:g}s -> {100 * y:.1f} %" for s, y in yields.items()))
    assert abs(yields[0.0] - _ANCHORS[0.0]) < 0.10
    assert abs(yields[1.0] - _ANCHORS[1.0]) < 0.08
    assert abs(yields[2.0] - _ANCHORS[2.0]) < 0.05
    assert yields[0.0] < yields[1.0] < yields[2.0]
