"""Progress reporting and timing instrumentation for the engine.

Two independent pieces:

* :class:`ProgressReporter` — a tiny observer interface the scheduler
  calls as chunks complete.  :class:`NullProgress` ignores everything
  (the default); :class:`LogProgress` prints throttled status lines,
  which the CLI enables with ``--progress``.
* :class:`EngineStats` — per-phase counters (tasks, dispatched solves,
  cache hits, chunks, wall-clock seconds) accumulated across a flow run
  and exported as plain dictionaries into
  :attr:`~repro.core.results.FlowResult.engine_stats`.

The sample sweeps of the flow report under **canonical phase names**
(the ``PHASE_*`` constants, ordered by :data:`PHASE_ORDER`) so that
timings are comparable across executors, flow runs and benchmark
artifacts: ``step1_train``, ``prune_resolve``, ``step2_interim``,
``step2_train`` and ``yield_eval``.
:meth:`~repro.core.results.FlowResult.phase_seconds` returns the
wall-clock seconds of every canonical phase (zero-filled when a phase
did not run, e.g. the skipped step-2 interim pass) plus any ad-hoc
phases that were recorded.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, TextIO

#: Canonical engine phase names (uniform across executors and runs).
PHASE_STEP1_TRAIN = "step1_train"
PHASE_PRUNE_RESOLVE = "prune_resolve"
PHASE_STEP2_INTERIM = "step2_interim"
PHASE_STEP2_TRAIN = "step2_train"
PHASE_YIELD_EVAL = "yield_eval"

#: Flow order of the canonical phases.
PHASE_ORDER = (
    PHASE_STEP1_TRAIN,
    PHASE_PRUNE_RESOLVE,
    PHASE_STEP2_INTERIM,
    PHASE_STEP2_TRAIN,
    PHASE_YIELD_EVAL,
)


class ProgressReporter:
    """Observer interface; all methods are optional no-ops."""

    def start(self, phase: str, total: int) -> None:
        """A phase with ``total`` tasks is about to run."""

    def advance(self, phase: str, done: int, total: int) -> None:
        """``done`` of ``total`` tasks of the phase have completed."""

    def finish(self, phase: str, total: int, seconds: float) -> None:
        """The phase completed in ``seconds``."""


class NullProgress(ProgressReporter):
    """Discard all progress events (the default reporter)."""


class LogProgress(ProgressReporter):
    """Print throttled progress lines to a stream.

    Parameters
    ----------
    stream:
        Output stream.  ``None`` (the default) resolves ``sys.stderr``
        at *emit* time, so progress never lands on stdout — machine
        consumers of ``--json`` output stay uncontaminated even when the
        surrounding harness swaps the standard streams after the
        reporter was constructed.
    min_interval:
        Minimum seconds between two ``advance`` lines of the same phase.
        The throttle never suppresses the **last** pre-completion line
        (``done >= total - 1``): when the final task of a phase stalls,
        the log must show the phase parked at ``total-1``, not at
        whatever count the previous interval happened to catch.
        Advance lines carry a linear ETA estimate once at least one
        task has finished.
    prefix:
        Optional context label inserted into every line (the campaign
        runner sets it to the cell id, so interleaved cells stay
        attributable: ``[engine:<cell>] step1_train ...``).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.5,
        prefix: str = "",
    ) -> None:
        self._stream = stream
        self.min_interval = float(min_interval)
        self.prefix = str(prefix)
        self._last_emit: Dict[str, float] = {}
        self._phase_start: Dict[str, float] = {}

    @property
    def _tag(self) -> str:
        return f"[engine:{self.prefix}]" if self.prefix else "[engine]"

    @property
    def stream(self) -> TextIO:
        """The stream progress lines go to (current ``sys.stderr`` by default)."""
        return self._stream if self._stream is not None else sys.stderr

    def start(self, phase: str, total: int) -> None:
        print(f"{self._tag} {phase}: 0/{total} samples", file=self.stream, flush=True)
        now = time.perf_counter()
        self._last_emit[phase] = now
        self._phase_start[phase] = now

    def advance(self, phase: str, done: int, total: int) -> None:
        now = time.perf_counter()
        # done >= total - 1 bypasses the throttle: the line announcing
        # the final outstanding task must never be suppressed, or a
        # stalled last task looks like a stalled reporter.
        if done < total - 1 and now - self._last_emit.get(phase, 0.0) < self.min_interval:
            return
        self._last_emit[phase] = now
        line = f"{self._tag} {phase}: {done}/{total} samples"
        if 0 < done < total:
            elapsed = now - self._phase_start.get(phase, now)
            eta = elapsed * (total - done) / done
            line += f" (ETA {eta:.1f} s)"
        print(line, file=self.stream, flush=True)

    def finish(self, phase: str, total: int, seconds: float) -> None:
        print(
            f"{self._tag} {phase}: done ({total} samples in {seconds:.2f} s)",
            file=self.stream,
            flush=True,
        )


@dataclass
class PhaseStats:
    """Counters of one named engine phase."""

    n_tasks: int = 0
    n_dispatched: int = 0
    n_cache_hits: int = 0
    n_chunks: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (for :class:`~repro.core.results.FlowResult`)."""
        return {
            "n_tasks": float(self.n_tasks),
            "n_dispatched": float(self.n_dispatched),
            "n_cache_hits": float(self.n_cache_hits),
            "n_chunks": float(self.n_chunks),
            "seconds": float(self.seconds),
        }


@dataclass
class EngineStats:
    """Per-phase instrumentation accumulated over an engine session."""

    phases: Dict[str, PhaseStats] = field(default_factory=dict)

    def record(
        self,
        phase: str,
        n_tasks: int = 0,
        n_dispatched: int = 0,
        n_cache_hits: int = 0,
        n_chunks: int = 0,
        seconds: float = 0.0,
    ) -> PhaseStats:
        """Accumulate counters into ``phase`` (creating it on first use)."""
        stats = self.phases.setdefault(phase, PhaseStats())
        stats.n_tasks += int(n_tasks)
        stats.n_dispatched += int(n_dispatched)
        stats.n_cache_hits += int(n_cache_hits)
        stats.n_chunks += int(n_chunks)
        stats.seconds += float(seconds)
        return stats

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain nested-dict view of every phase."""
        return {name: stats.as_dict() for name, stats in self.phases.items()}
