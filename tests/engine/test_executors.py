"""Unit tests for the execution backends."""

import pytest

from repro.engine import (
    EXECUTOR_CHOICES,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    create_executor,
    resolve_jobs,
    spawn_task_seeds,
)


def _double(shared, payload):
    return [shared * value for value in payload]


def _shared_identity(shared, payload):
    return shared["tag"]


EXECUTORS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ProcessPoolExecutor(jobs=2), id="processes"),
]


class TestMapChunks:
    @pytest.mark.parametrize("make", EXECUTORS)
    def test_results_in_submission_order(self, make):
        payloads = [[i, i + 1] for i in range(7)]
        with make() as executor:
            results = list(executor.map_chunks(_double, payloads, shared=10))
        assert results == [[10 * i, 10 * (i + 1)] for i in range(7)]

    @pytest.mark.parametrize("make", EXECUTORS)
    def test_results_stream_incrementally(self, make):
        """map_chunks yields chunk results one at a time (live progress)."""
        with make() as executor:
            iterator = executor.map_chunks(_double, [[1], [2], [3]], shared=1)
            assert next(iterator) == [1]
            assert list(iterator) == [[2], [3]]

    @pytest.mark.parametrize("make", EXECUTORS)
    def test_empty_payload_list(self, make):
        with make() as executor:
            assert list(executor.map_chunks(_double, [], shared=1)) == []

    @pytest.mark.parametrize("make", EXECUTORS)
    def test_reusable_across_calls(self, make):
        with make() as executor:
            first = list(executor.map_chunks(_double, [[1]], shared=2, shared_key="a"))
            second = list(executor.map_chunks(_double, [[2]], shared=3, shared_key="b"))
        assert first == [[2]]
        assert second == [[6]]

    def test_process_pool_ships_shared_once(self):
        shared = {"tag": "warm"}
        with ProcessPoolExecutor(jobs=2) as executor:
            results = list(
                executor.map_chunks(
                    _shared_identity, [None, None, None], shared=shared, shared_key="warm"
                )
            )
        assert results == ["warm", "warm", "warm"]


class TestFactory:
    def test_choices_cover_all_backends(self):
        assert EXECUTOR_CHOICES == ("serial", "processes")

    @pytest.mark.parametrize("name", EXECUTOR_CHOICES)
    def test_create_by_name(self, name):
        executor = create_executor(name, jobs=1)
        try:
            assert isinstance(executor, Executor)
            assert executor.name == name
        finally:
            executor.close()

    def test_instance_passthrough(self):
        serial = SerialExecutor()
        assert create_executor(serial) is serial

    def test_none_is_serial(self):
        assert isinstance(create_executor(None), SerialExecutor)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_executor("gpu")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestSeedDiscipline:
    def test_seeds_depend_on_index_not_chunking(self):
        full = spawn_task_seeds(42, [0, 1, 2, 3])
        split = spawn_task_seeds(42, [2, 3])
        assert full[2:] == split

    def test_seeds_differ_per_index_and_base(self):
        seeds = spawn_task_seeds(42, [0, 1, 2])
        assert len(set(seeds)) == 3
        assert spawn_task_seeds(43, [0, 1, 2]) != seeds

    def test_none_base_seed(self):
        assert spawn_task_seeds(None, [0, 1]) == [None, None]
