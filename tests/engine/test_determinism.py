"""Flow-level determinism: executors must not change the result.

The acceptance bar of the engine subsystem: running
:class:`~repro.core.flow.BufferInsertionFlow` with
``ProcessPoolExecutor(jobs=2)`` and ``SerialExecutor`` yields identical
buffer plans and yield numbers for the same seed.
"""

import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core import BufferInsertionFlow, FlowConfig


def _run(design, executor: str, jobs=None):
    config = FlowConfig(
        n_samples=80,
        n_eval_samples=120,
        seed=13,
        target_sigma=0.5,
        executor=executor,
        jobs=jobs,
    )
    return BufferInsertionFlow(design, config).run()


def _plan_signature(result):
    return [
        (b.flip_flop, b.lower, b.upper, b.step, b.usage_count, b.group)
        for b in result.plan.buffers
    ]


@pytest.fixture(scope="module")
def design():
    return build_suite_circuit("s9234", scale=0.05, seed=13)


@pytest.fixture(scope="module")
def serial_result(design):
    return _run(design, "serial")


class TestExecutorDeterminism:
    @pytest.mark.parametrize("executor", ["processes"])
    def test_parallel_flow_is_bit_identical_to_serial(self, design, serial_result, executor):
        parallel = _run(design, executor, jobs=2)
        assert _plan_signature(parallel) == _plan_signature(serial_result)
        assert parallel.plan.groups == serial_result.plan.groups
        assert parallel.improved_yield == serial_result.improved_yield
        assert parallel.original_yield == serial_result.original_yield
        assert parallel.target_period == serial_result.target_period
        assert parallel.lower_bounds == serial_result.lower_bounds
        assert parallel.step1.usage_counts == serial_result.step1.usage_counts
        assert parallel.step2.usage_counts == serial_result.step2.usage_counts

    def test_engine_stats_present_and_consistent(self, serial_result):
        stats = serial_result.engine_stats
        assert "step1_train" in stats and "step2_train" in stats and "yield_eval" in stats
        step1 = stats["step1_train"]
        assert step1["n_tasks"] == step1["n_dispatched"] + step1["n_cache_hits"]

    def test_pruning_resolve_uses_cache(self, serial_result):
        resolve = serial_result.engine_stats["prune_resolve"]
        assert resolve["n_cache_hits"] > 0
        assert resolve["n_dispatched"] < resolve["n_tasks"]

    def test_phase_seconds_canonical_and_zero_filled(self, serial_result):
        from repro.engine import PHASE_ORDER

        seconds = serial_result.phase_seconds()
        assert list(seconds)[: len(PHASE_ORDER)] == list(PHASE_ORDER)
        assert all(value >= 0.0 for value in seconds.values())
        assert seconds["step1_train"] > 0.0


class TestExternalExecutor:
    def test_shared_executor_not_closed_by_flow(self, design):
        from repro.engine import SerialExecutor

        executor = SerialExecutor()
        config = FlowConfig(n_samples=40, n_eval_samples=60, seed=3)
        first = BufferInsertionFlow(design, config, executor=executor).run()
        second = BufferInsertionFlow(design, config, executor=executor).run()
        assert _plan_signature(first) == _plan_signature(second)
