"""Benchmark: runtime scaling (paper Table I, column ``T (s)``).

The paper reports end-to-end runtimes growing from ~8 s (smallest circuit,
relaxed target) to ~5124 s (largest circuit, tight target) with a C++ /
Gurobi implementation.  The absolute numbers of the Python reproduction
are incomparable, but two scaling *shapes* carry over and are measured
here:

* runtime grows with circuit size and with how tight the target period is
  (more failing samples means more per-sample optimisations);
* the specialised graph solver is substantially faster per sample than the
  faithful big-M MILP formulation while finding the same buffer counts in
  almost every sample.

All flow-level timing goes through the :mod:`repro.bench` harness
(:class:`~repro.bench.BenchRunner` with warmup/repeat discipline), so
these benchmarks measure exactly what ``repro bench run`` measures and
their records carry the same per-phase engine timings.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import SETTINGS, get_design, run_once
from repro.bench import BenchRunner, Scenario
from repro.core.compiled import ensure_compiled_system
from repro.core.config import BufferSpec
from repro.core.sample_solver import PerSampleSolver, SampleProblem
from repro.timing.period import sample_min_periods
from repro.variation.sampling import MonteCarloSampler


def _scenario(circuit: str, **overrides) -> Scenario:
    defaults = {
        "circuit": circuit,
        "scale": SETTINGS.scale_for(circuit),
        "sigma": 0.0,
        "n_samples": SETTINGS.n_samples,
        "n_eval_samples": SETTINGS.n_eval_samples,
        "seed": 3,
    }
    defaults.update(overrides)
    return Scenario(**defaults)


def test_runtime_grows_with_tighter_target(benchmark):
    circuit = SETTINGS.circuits[0]
    runner = BenchRunner(warmup=1, repeat=1)

    def run():
        return {
            sigma: runner.run_scenario(
                _scenario(circuit, sigma=sigma, n_eval_samples=200)
            )
            for sigma in (0.0, 2.0)
        }

    records = run_once(benchmark, run)
    for sigma, record in records.items():
        phases = record.phase_seconds
        print(
            f"\n{circuit}: sigma {sigma:g} -> {record.best_seconds:.2f} s "
            f"(step1 {phases['step1_train']:.2f} s, step2 {phases['step2_train']:.2f} s, "
            f"eval {phases['yield_eval']:.2f} s)"
        )
    assert records[0.0].best_seconds > records[2.0].best_seconds


def test_runtime_grows_with_circuit_size(benchmark):
    if len(SETTINGS.circuits) < 2:
        pytest.skip("needs at least two circuits selected")
    runner = BenchRunner(warmup=0, repeat=1)

    def run():
        records = {}
        for circuit in (SETTINGS.circuits[0], SETTINGS.circuits[-1]):
            record = runner.run_scenario(
                _scenario(circuit, n_samples=150, n_eval_samples=150)
            )
            records[circuit] = (get_design(circuit).netlist.n_gates, record)
        return records

    records = run_once(benchmark, run)
    for circuit, (gates, record) in records.items():
        print(f"\n{circuit}: {gates} gates -> {record.best_seconds:.2f} s")


def test_flow_runtime_by_executor(benchmark):
    """End-to-end flow runtime per engine executor (identical results).

    Runs the same scenario on the serial and process-pool executors
    through the bench harness and asserts the recorded plan
    fingerprints are identical.  The speedup assertion only fires where
    it is physically meaningful: multiple cores available *and* a serial
    runtime large enough (>= 2 s) for the parallel gain to dominate pool
    start-up on a ~second-scale workload.
    """
    circuit = SETTINGS.circuits[0]
    jobs = max(2, (os.cpu_count() or 1))
    runner = BenchRunner(warmup=1, repeat=1)

    def run_all():
        return {
            executor: runner.run_scenario(
                _scenario(
                    circuit,
                    executor=executor,
                    jobs=1 if executor == "serial" else jobs,
                )
            )
            for executor in ("serial", "processes")
        }

    records = run_once(benchmark, run_all)
    for executor, record in records.items():
        print(
            f"\n{circuit}: executor {executor} (jobs {record.scenario.jobs}) "
            f"-> {record.best_seconds:.2f} s, {record.metrics['n_buffers']:.0f} buffers, "
            f"Yi {100 * record.metrics['yield_improvement']:.2f} points"
        )
    fingerprints = {record.plan_fingerprint for record in records.values()}
    assert len(fingerprints) == 1, "flow results must be identical across executors"
    serial_seconds = records["serial"].best_seconds
    process_seconds = records["processes"].best_seconds
    if (os.cpu_count() or 1) > 1 and serial_seconds >= 2.0:
        assert process_seconds < serial_seconds, (
            "process-pool flow should beat the serial flow on a multi-core machine"
        )


def test_graph_solver_faster_than_milp(benchmark):
    circuit = SETTINGS.circuits[0]
    design = get_design(circuit)
    compiled = ensure_compiled_system(design)
    topology = compiled.topology
    sampler = MonteCarloSampler(design.variation_model, rng=13)
    batch = sampler.sample(min(150, SETTINGS.n_samples))
    samples = compiled.sample(batch, sampler=sampler)
    analysis = sample_min_periods(design, constraint_samples=samples)
    period = analysis.target_period(1.0)
    spec = BufferSpec()
    step = spec.step_size(period)
    setup = np.floor(samples.setup_bounds(period) / step + 1e-9)
    hold = np.floor(samples.hold_bounds() / step + 1e-9)
    lower = np.full(topology.n_ffs, -float(spec.n_steps))
    upper = np.full(topology.n_ffs, float(spec.n_steps))
    solver = PerSampleSolver(topology)

    failing = [
        s
        for s in range(samples.n_samples)
        if SampleProblem(setup[:, s], hold[:, s], lower, upper).violated_edges().size
    ][:20]

    def time_backend(use_milp: bool) -> float:
        start = time.perf_counter()
        for s in failing:
            problem = SampleProblem(setup[:, s], hold[:, s], lower, upper)
            if use_milp:
                solver.solve_with_milp(problem)
            else:
                solver.solve(problem)
        return time.perf_counter() - start

    graph_seconds = run_once(benchmark, time_backend, False)
    milp_seconds = time_backend(True)
    print(
        f"\n{circuit}: {len(failing)} failing samples, graph backend {graph_seconds:.2f} s, "
        f"big-M MILP backend {milp_seconds:.2f} s "
        f"({milp_seconds / max(graph_seconds, 1e-9):.1f}x slower)"
    )
    assert graph_seconds < milp_seconds
