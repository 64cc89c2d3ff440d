"""Gang dispatch primitives: PendingPhase, run_pending,
drive_pending_generator(s) and gang_dispatch.

These tests drive the primitives with synthetic chunk functions so the
ordering contracts are checked directly:

* results always align with the input pendings or generators, whatever
  the executor;
* a generator's next phase is dispatched as soon as its last one drains,
  before a peer's queued phase is finished;
* on keyed-state executors a new key is never submitted while a phase of
  another key is in flight (a key change restarts the pool);
* an error still finishes every other queued phase and closes every
  generator before the first error propagates;
* ``drive_pending_generator`` reproduces the sequential behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

import pytest

from repro.engine import (
    PendingPhase,
    SerialExecutor,
    drive_pending_generator,
    drive_pending_generators,
    gang_dispatch,
    run_pending,
)


@dataclass
class FakeChunk:
    values: List[int]

    @property
    def n_tasks(self) -> int:
        return len(self.values)


def double_chunk(shared: Any, chunk: FakeChunk) -> List[int]:
    return [2 * value for value in chunk.values]


def make_pending(values: List[int], shared_key: Optional[str] = None, log=None) -> PendingPhase:
    chunks = [FakeChunk(values[i : i + 2]) for i in range(0, len(values), 2)]

    def finish(stream: Iterator[Any]) -> List[int]:
        merged: List[int] = []
        for result in stream:
            merged.extend(result)
        if log is not None:
            log.append(("finish", shared_key))
        return merged

    return PendingPhase(double_chunk, chunks, None, shared_key, finish, phase="test")


class RecordingKeyedExecutor(SerialExecutor):
    """Serial semantics, but keyed_state=True and a dispatch/drain log."""

    keyed_state = True

    def __init__(self) -> None:
        super().__init__()
        self.events: List[tuple] = []

    def map_chunks(self, fn, payloads, shared=None, shared_key=None):
        self.events.append(("dispatch", shared_key))
        results = [fn(shared, payload) for payload in payloads]

        def stream():
            self.events.append(("drain", shared_key))
            yield from results

        return stream()


def failing_pending(log=None) -> PendingPhase:
    """A phase whose finish drains its chunks, then raises KeyError."""

    def finish(stream: Iterator[Any]) -> None:
        for _ in stream:
            pass
        if log is not None:
            log.append(("finish", "bad"))
        raise KeyError("bad")

    return PendingPhase(double_chunk, [FakeChunk([1])], None, None, finish, phase="bad")


def assert_one_key_in_flight(events: List[tuple]) -> None:
    """No dispatch of one key while a phase of another key is undrained."""
    in_flight: List[Optional[str]] = []
    for event, key in events:
        if event == "dispatch":
            assert all(other == key for other in in_flight), events
            in_flight.append(key)
        elif event == "drain":
            in_flight.remove(key)


class TestRunPending:
    def test_dispatch_and_finish_merges_chunks(self):
        with SerialExecutor() as executor:
            assert run_pending(make_pending([1, 2, 3]), executor) == [2, 4, 6]

    def test_dispatch_is_idempotent(self):
        with SerialExecutor() as executor:
            pending = make_pending([4])
            pending.dispatch(executor)
            stream = pending._stream
            pending.dispatch(executor)
            assert pending._stream is stream
            assert pending.finish() == [8]

    def test_finish_without_dispatch_yields_empty(self):
        assert make_pending([]).finish() == []


class TestGangDispatch:
    def test_results_align_with_pendings_stateless(self):
        with SerialExecutor() as executor:
            pendings = [make_pending([i]) for i in range(5)]
            assert gang_dispatch(pendings, executor) == [[0], [2], [4], [6], [8]]

    def test_empty_wave(self):
        with SerialExecutor() as executor:
            assert gang_dispatch([], executor) == []

    def test_keyed_executor_groups_by_shared_key(self):
        executor = RecordingKeyedExecutor()
        log: List[tuple] = []
        pendings = [
            make_pending([1], "a", log),
            make_pending([2], "b", log),
            make_pending([3], "a", log),
        ]
        results = gang_dispatch(pendings, executor)
        # Results still align with the *input* order...
        assert results == [[2], [4], [6]]
        # ...but submission is grouped: both 'a' pendings dispatch (and
        # drain) before anything keyed 'b' is submitted.
        assert executor.events == [
            ("dispatch", "a"),
            ("dispatch", "a"),
            ("drain", "a"),
            ("drain", "a"),
            ("dispatch", "b"),
            ("drain", "b"),
        ]

    def test_stateless_executor_submits_whole_wave(self):
        executor = RecordingKeyedExecutor()
        executor.keyed_state = False
        pendings = [make_pending([1], "a"), make_pending([2], "b")]
        assert gang_dispatch(pendings, executor) == [[2], [4]]
        assert [event for event, _ in executor.events] == [
            "dispatch",
            "dispatch",
            "drain",
            "drain",
        ]

    def test_error_finishes_the_rest_of_the_wave(self):
        log: List[tuple] = []
        pendings = [failing_pending(log), make_pending([2], "good", log)]
        with SerialExecutor() as executor, pytest.raises(KeyError, match="bad"):
            gang_dispatch(pendings, executor)
        assert log == [("finish", "bad"), ("finish", "good")]


class TestDrivePendingGenerators:
    @staticmethod
    def cell(name: str, log: List[tuple]):
        first = yield make_pending([1], f"{name}1", log)
        second = yield make_pending(first, f"{name}2", log)
        return (name, second)

    def test_results_align_with_generators(self):
        def short():
            return "short"
            yield  # pragma: no cover

        log: List[tuple] = []
        with SerialExecutor() as executor:
            results = drive_pending_generators(
                [self.cell("a", log), short(), self.cell("b", log)], executor
            )
        assert results == [("a", [4]), "short", ("b", [4])]

    def test_next_phase_dispatched_before_peer_finishes(self):
        executor = RecordingKeyedExecutor()
        executor.keyed_state = False
        log = executor.events
        drive_pending_generators([self.cell("a", log), self.cell("b", log)], executor)
        events = [event for event in executor.events if event[0] != "drain"]
        # Both first phases go out before anything drains; a's second
        # phase goes out as soon as a's first is finished, ahead of b's.
        assert events[:4] == [
            ("dispatch", "a1"),
            ("dispatch", "b1"),
            ("finish", "a1"),
            ("dispatch", "a2"),
        ]
        assert events.index(("dispatch", "a2")) < events.index(("finish", "b1"))

    def test_keyed_executor_never_switches_key_under_a_phase_in_flight(self):
        executor = RecordingKeyedExecutor()

        def cell(keys: List[str]):
            for key in keys:
                yield make_pending([1], key)

        results = drive_pending_generators(
            [cell(["a", "a"]), cell(["b"]), cell(["a", "b", "a"])], executor
        )
        assert results == [None, None, None]
        assert_one_key_in_flight(executor.events)
        assert [event for event, _ in executor.events].count("dispatch") == 6

    def test_error_drains_peers_closes_generators_and_reraises_first(self):
        log: List[tuple] = []
        closed: List[str] = []

        def cell(name: str, first: PendingPhase):
            try:
                yield first
                yield make_pending([2], f"{name}2", log)
            finally:
                closed.append(name)

        generators = [
            cell("bad", failing_pending(log)),
            cell("good", make_pending([3], "good1", log)),
            cell("worse", failing_pending()),
        ]
        with SerialExecutor() as executor, pytest.raises(KeyError, match="bad"):
            drive_pending_generators(generators, executor)
        # The peers' queued phases are finished (the third's error is
        # swallowed), no phase is dispatched after the error, and every
        # generator is closed.
        assert log == [("finish", "bad"), ("finish", "good1")]
        assert sorted(closed) == ["bad", "good", "worse"]

    def test_generator_error_drains_peers(self):
        log: List[tuple] = []

        def broken():
            yield make_pending([1], "broken1", log)
            raise RuntimeError("broken")

        with SerialExecutor() as executor, pytest.raises(RuntimeError, match="broken"):
            drive_pending_generators([broken(), self.cell("b", log)], executor)
        assert log == [("finish", "broken1"), ("finish", "b1")]


class TestDrivePendingGenerator:
    def test_results_are_sent_back_and_return_value_propagates(self):
        def flow():
            first = yield make_pending([1, 2])
            second = yield make_pending(first)
            return sum(second)

        with SerialExecutor() as executor:
            # [1,2] -> [2,4] -> [4,8] -> 12
            assert drive_pending_generator(flow(), executor) == 12

    def test_generator_without_yields(self):
        def flow():
            return "done"
            yield  # pragma: no cover

        with SerialExecutor() as executor:
            assert drive_pending_generator(flow(), executor) == "done"
