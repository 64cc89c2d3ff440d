"""Shared fixtures for the test suite.

The heavier objects (a small generated design, its compiled constraint
system, a sample batch) are session-scoped so the many test modules that need a
realistic circuit do not rebuild it over and over.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.circuit.design import CircuitDesign
from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
from repro.circuit.library import default_library
from repro.circuit.suite import build_suite_circuit
from repro.core.compiled import ensure_compiled_system
from repro.variation.sampling import MonteCarloSampler

# Keep hypothesis fast and deterministic across the whole suite.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
# `--hypothesis-profile=deep` runs profile-governed properties 20x longer.
settings.register_profile("deep", settings.get_profile("repro"), max_examples=500)
settings.load_profile("repro")


@pytest.fixture
def design_builds(monkeypatch):
    """``(circuit, scale, seed)`` of every suite design build, in call order.

    Counts calls of ``repro.circuit.suite.build_suite_circuit``, the one
    function every design cache builds through.
    """
    import repro.circuit.suite as suite

    builds = []
    build = suite.build_suite_circuit

    def counted(name, scale=1.0, seed=0, **kwargs):
        builds.append((name, scale, seed))
        return build(name, scale=scale, seed=seed, **kwargs)

    monkeypatch.setattr(suite, "build_suite_circuit", counted)
    return builds


@pytest.fixture(scope="session")
def library():
    """The default cell library."""
    return default_library()


@pytest.fixture(scope="session")
def tiny_netlist(library):
    """A very small generated netlist (fast unit tests)."""
    config = GeneratorConfig(n_flip_flops=12, n_gates=150, max_depth=6, min_depth=2)
    return generate_sequential_circuit(config, library=library, rng=7, name="tiny")


@pytest.fixture(scope="session")
def tiny_design(tiny_netlist, library):
    """A tiny design with placement, skew and variation model."""
    return CircuitDesign.from_netlist(tiny_netlist, library=library, clock_skew_magnitude=0.0, rng=7)


@pytest.fixture(scope="session")
def small_design():
    """A small but realistic suite circuit (shared by integration tests)."""
    return build_suite_circuit("s9234", scale=0.15, seed=3)


@pytest.fixture(scope="session")
def small_system(small_design):
    """Compiled constraint system of the small design (cached)."""
    return ensure_compiled_system(small_design)


@pytest.fixture(scope="session")
def small_samples(small_design):
    """A batch of evaluated constraint samples for the small design."""
    sampler = MonteCarloSampler(small_design.variation_model, rng=11)
    batch = sampler.sample(300)
    return ensure_compiled_system(small_design).sample(batch, sampler=sampler)


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
