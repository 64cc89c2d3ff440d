"""Batched sample-problem descriptions and chunking.

A :class:`BatchProblem` wraps the per-edge, per-sample constraint bounds
of one Monte-Carlo batch (the ``(n_edges, n_samples)`` setup/hold arrays
the flow already computes) and answers the vectorised questions the
scheduler needs: which samples are violated at all, and the column data
of any single sample.  :func:`make_chunks` slices a set of sample
indices into :class:`ChunkPayload` work units sized for the executor, so
one process-pool round trip carries many samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.cache import fingerprint_arrays
from repro.engine.shm import SharedArrayRef, SharedColumns

_TOL = 1e-9


@dataclass(eq=False)
class BatchProblem:
    """One Monte-Carlo batch of per-sample difference-constraint bounds.

    Compare batches by :meth:`fingerprint`; array-field dataclass
    equality would be ambiguous, so ``eq`` is disabled.

    Attributes
    ----------
    setup_bounds / hold_bounds:
        Arrays ``(n_edges, n_samples)`` of right-hand sides in solver
        units (time units for an evaluation sweep); a negative entry
        means the constraint is violated when no buffer is adjusted.
    """

    setup_bounds: np.ndarray
    hold_bounds: np.ndarray
    _fingerprint: Optional[str] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.setup_bounds = np.asarray(self.setup_bounds, dtype=float)
        self.hold_bounds = np.asarray(self.hold_bounds, dtype=float)
        if self.setup_bounds.shape != self.hold_bounds.shape:
            raise ValueError("setup and hold bound arrays must have the same shape")

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples in the batch."""
        return int(self.setup_bounds.shape[1])

    @property
    def n_edges(self) -> int:
        """Number of sequential edges."""
        return int(self.setup_bounds.shape[0])

    def violated_mask(self, tol: float = _TOL) -> np.ndarray:
        """Boolean per-sample flag: any constraint violated at ``x = 0``."""
        return np.any(self.setup_bounds < -tol, axis=0) | np.any(self.hold_bounds < -tol, axis=0)

    def violated_indices(self, tol: float = _TOL) -> np.ndarray:
        """Indices of the samples that need solving at all."""
        return np.where(self.violated_mask(tol))[0]

    def fingerprint(self) -> str:
        """Stable content hash of the batch (cached after the first call)."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint_arrays(self.setup_bounds, self.hold_bounds)
        return self._fingerprint


@dataclass
class ChunkPayload:
    """The self-contained work unit shipped to one executor invocation.

    Carries the bound columns of its sample indices plus the (small)
    per-batch vectors every solve needs, so a worker only ever needs the
    warm shared solver and one payload.  ``extra`` is an optional small
    task-specific object (e.g. the buffer plan of a yield-evaluation
    sweep); ``extra_key`` is its stable content key, which workers use to
    memoise anything derived from it across chunks.  ``label`` is an
    optional attribute dict for observability only (phase name, campaign
    cell): the scheduler stamps it on before dispatch and worker-side
    chunk spans carry it, so cross-process trace events stay attributable
    — it never influences what is computed.
    """

    indices: np.ndarray
    setup_bounds: Any
    hold_bounds: Any
    lower: np.ndarray
    upper: np.ndarray
    candidates: Optional[np.ndarray] = None
    targets: Optional[np.ndarray] = None
    extra: Any = None
    extra_key: Optional[str] = None
    label: Optional[Dict[str, Any]] = None

    @property
    def n_tasks(self) -> int:
        """Number of samples in this chunk."""
        return int(len(self.indices))

    def resolve(self) -> "ChunkPayload":
        """Materialise shared-memory bound columns in place (idempotent).

        When the bounds travelled as :class:`~repro.engine.shm.
        SharedColumns` handles, the first consumer (the worker-side chunk
        function) turns them into the exact arrays an inline payload
        would have carried.  Payloads with inline arrays pass through
        untouched.
        """
        if isinstance(self.setup_bounds, SharedColumns):
            self.setup_bounds = self.setup_bounds.load()
        if isinstance(self.hold_bounds, SharedColumns):
            self.hold_bounds = self.hold_bounds.load()
        return self


def default_chunk_size(n_tasks: int, jobs: int) -> int:
    """Chunk size balancing IPC overhead against load balance.

    Aims for roughly four chunks per worker (so stragglers even out) with
    a floor of one and a cap of 64 samples per chunk.
    """
    if n_tasks <= 0:
        return 1
    per_worker = math.ceil(n_tasks / max(1, jobs) / 4)
    return int(max(1, min(64, per_worker)))


def make_chunks(
    indices: Sequence[int],
    setup_bounds: np.ndarray,
    hold_bounds: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    candidates: Optional[np.ndarray] = None,
    targets: Optional[np.ndarray] = None,
    chunk_size: int = 16,
    extra: Any = None,
    extra_key: Optional[str] = None,
    setup_ref: Optional[SharedArrayRef] = None,
    hold_ref: Optional[SharedArrayRef] = None,
) -> List[ChunkPayload]:
    """Slice ``indices`` into :class:`ChunkPayload` units of ``chunk_size``.

    Chunks are formed in ascending index order; together with the
    executors' ordered result contract this keeps the reduction
    deterministic.  Stochastic chunk functions that need per-task
    randomness should derive it from ``payload.indices`` with
    :func:`repro.engine.executor.spawn_task_seeds`, so seeds depend on
    the sample index and never on the chunk layout.

    When ``setup_ref``/``hold_ref`` name shared-memory copies of the
    bound matrices, payloads carry :class:`~repro.engine.shm.
    SharedColumns` handles instead of sliced arrays — the worker
    materialises identical columns from the segment
    (:meth:`ChunkPayload.resolve`), and no bound bytes are pickled.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    ordered = np.asarray(sorted(int(i) for i in indices), dtype=int)
    chunks: List[ChunkPayload] = []
    for start in range(0, len(ordered), chunk_size):
        part = ordered[start : start + chunk_size]
        chunks.append(
            ChunkPayload(
                indices=part,
                setup_bounds=(
                    SharedColumns(setup_ref, part)
                    if setup_ref is not None
                    else setup_bounds[:, part]
                ),
                hold_bounds=(
                    SharedColumns(hold_ref, part)
                    if hold_ref is not None
                    else hold_bounds[:, part]
                ),
                lower=lower,
                upper=upper,
                candidates=candidates,
                targets=targets,
                extra=extra,
                extra_key=extra_key,
            )
        )
    return chunks
