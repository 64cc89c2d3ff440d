"""Tests for flow configuration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import BufferSpec, FlowConfig


class TestBufferSpec:
    def test_paper_defaults(self):
        spec = BufferSpec()
        assert spec.max_range_fraction == pytest.approx(1 / 8)
        assert spec.n_steps == 20
        assert spec.discrete

    def test_range_and_step(self):
        spec = BufferSpec(max_range_fraction=0.25, n_steps=10)
        assert spec.max_range(40.0) == pytest.approx(10.0)
        assert spec.step_size(40.0) == pytest.approx(1.0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            BufferSpec(max_range_fraction=0.0)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            BufferSpec(n_steps=0)

    def test_range_requires_positive_period(self):
        with pytest.raises(ValueError):
            BufferSpec().max_range(0.0)


class TestFlowConfig:
    def test_defaults_valid(self):
        config = FlowConfig()
        assert config.solver == "graph"
        assert config.buffer_spec.n_steps == 20

    def test_prune_critical_count_scales_with_samples(self):
        assert FlowConfig(n_samples=10000).prune_critical_count == 5
        assert FlowConfig(n_samples=2000).prune_critical_count == 1

    def test_keep_threshold(self):
        config = FlowConfig(keep_usage_fraction=0.02)
        assert config.keep_threshold(1000) == 20
        assert config.keep_threshold(10) == 2  # absolute floor
        assert config.keep_threshold(0) == 2

    def test_invalid_solver(self):
        with pytest.raises(ValueError):
            FlowConfig(solver="gurobi")

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            FlowConfig(n_samples=0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            FlowConfig(correlation_threshold=1.5)

    def test_target_period_override_validated(self):
        with pytest.raises(ValueError):
            FlowConfig(target_period=-1.0)

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            FlowConfig(cache_size=0)
        assert FlowConfig(cache_size=16).cache_size == 16

    @pytest.mark.parametrize("lp_backend", ["hihgs", "HiGHS", "", "cplex"])
    def test_unknown_lp_backend_rejected(self, lp_backend):
        with pytest.raises(ValueError, match="lp_backend must be one of"):
            FlowConfig(lp_backend=lp_backend)

    @pytest.mark.parametrize("lp_backend", ["auto", "scipy", "simplex"])
    def test_known_lp_backends_accepted(self, lp_backend):
        assert FlowConfig(lp_backend=lp_backend).lp_backend == lp_backend

    def test_validation_does_not_import_the_lp_backends(self):
        """Checking ``lp_backend`` must not pull in scipy.optimize."""
        code = (
            "import sys\n"
            "from repro.core.config import FlowConfig\n"
            "FlowConfig(lp_backend='scipy')\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "assert 'repro.milp.backends' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
