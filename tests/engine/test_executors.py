"""Unit tests for the execution backends."""

import os
import select
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
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


_POOL_THEN_SLEEP = textwrap.dedent(
    """
    import multiprocessing
    import operator
    import time

    from repro.engine import ProcessPoolExecutor

    executor = ProcessPoolExecutor(jobs=2)
    assert list(executor.map_chunks(operator.add, [1, 2], shared=1, shared_key="k")) == [2, 3]
    print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
    time.sleep(600)
    """
)


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive; a zombie counts as exited (PID 1 may not reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


class TestOrphanedWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
    def test_workers_exit_when_the_parent_is_killed(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        parent = subprocess.Popen(
            [sys.executable, "-c", _POOL_THEN_SLEEP],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 120)
            assert ready, "the pool never reported its workers"
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2, parent.stderr.read()
            parent.kill()
            parent.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=30)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            parent.stdout.close()
            parent.stderr.close()
