"""Zero-copy shipping of batch bound matrices via shared memory.

Every :class:`~repro.engine.batch.ChunkPayload` historically carried its
own pickled copy of the ``(n_edges, chunk)`` setup/hold bound columns —
over a whole phase the full ``(n_edges, n_samples)`` matrices crossed
the process boundary once per quantity, re-serialised chunk by chunk.

This module ships each matrix **once** instead:

* the parent process publishes it into a
  :mod:`multiprocessing.shared_memory` segment keyed by the matrix's
  content fingerprint (:class:`SharedMatrixStore`), so identical
  matrices — e.g. one evaluation batch swept against several baseline
  plans, or re-solves of one training batch across phases — share one
  segment;
* chunks carry a :class:`SharedColumns` handle (segment name, shape,
  dtype, column indices) instead of the data;
* workers attach each segment once (:func:`attach_array` memoises per
  process) and materialise their columns locally — zero IPC bytes for
  the bounds after the first touch.

Lifecycle: phases *check out* a matrix before dispatch and *check in*
after their result stream drains, so a segment is never unlinked while
chunks referencing it are in flight.  Fully released segments are kept
in a small retirement buffer (consecutive phases over the same batch
re-check-out without re-publishing) and unlinked when the buffer rolls
over, at :meth:`SharedMatrixStore.release_all`, or at interpreter exit.

Gates: sharing turns off when ``REPRO_NO_SHM`` is set (any non-empty
value), when :mod:`multiprocessing.shared_memory` is unavailable, or
for matrices smaller than :data:`SHM_MIN_BYTES` (64 KiB) — payloads
then simply carry the sliced arrays as before.  The transport
never changes results: the worker-side columns are byte-for-byte the
slices the parent would have pickled.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None

#: Below this many bytes a matrix is cheaper to pickle than to publish.
SHM_MIN_BYTES = 64 * 1024

#: Fully released segments kept attached for fingerprint reuse before
#: being unlinked (oldest first).
_RETIRE_CAPACITY = 4


def shm_enabled() -> bool:
    """Whether shared-memory shipping is available and not opted out."""
    return _shared_memory is not None and not os.environ.get("REPRO_NO_SHM")


# ----------------------------------------------------------------------
# Worker-side attachment (memoised per process)
# ----------------------------------------------------------------------
_ATTACHED: Dict[str, object] = {}
_ATTACH_ORDER: List[str] = []
_ATTACH_LOCK = threading.Lock()

#: Attachments kept per worker process.  Only a handful of segments are
#: live at any moment; evicting the oldest unmaps segments whose parent
#: side has long been unlinked, bounding worker address-space growth.
_ATTACH_CAPACITY = 8


def _attach_untracked(name: str):
    """Attach a segment without registering it with the resource tracker.

    The parent owns the segment's lifetime (create registers, unlink
    unregisters); a worker-side registration is wrong in *both* tracker
    topologies.  When the worker shares the parent's tracker (pool
    forked after the tracker started) a later unregister would strip the
    parent's entry and the owner's unlink raises KeyError noise inside
    the tracker; when the worker forked before the tracker existed it
    starts its *own* tracker, which at worker exit would unlink — tear
    out from under the parent — every segment it ever attached.

    Python 3.13 exposes this as ``track=False``; earlier versions
    register unconditionally in ``SharedMemory.__init__``, so the
    registration hook is blanked for the duration of the constructor
    (callers hold ``_ATTACH_LOCK``, and worker chunk functions are
    single-threaded, so nothing else registers concurrently).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def attach_array(name: str, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
    """Map a published segment and view it as an ndarray (memoised).

    The first call in a process attaches the segment; later calls reuse
    the mapping.  The returned array is a read-only view of the shared
    buffer — callers that need to mutate must copy (column slicing does).
    """
    with _ATTACH_LOCK:
        segment = _ATTACHED.get(name)
        if segment is None:
            segment = _attach_untracked(name)
            _ATTACHED[name] = segment
            _ATTACH_ORDER.append(name)
            while len(_ATTACH_ORDER) > _ATTACH_CAPACITY:
                stale = _ATTACH_ORDER.pop(0)
                try:
                    _ATTACHED.pop(stale).close()
                except Exception:  # pragma: no cover - best-effort unmap
                    pass
        array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable handle to an ndarray resident in a shared segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def array(self) -> np.ndarray:
        return attach_array(self.name, self.shape, self.dtype)


@dataclass
class SharedColumns:
    """A column subset of a shared matrix, resolved where it is used.

    ``load()`` attaches the segment (memoised per process) and copies
    out exactly the columns the chunk owns — byte-identical to the slice
    the parent would otherwise have pickled into the payload.
    """

    ref: SharedArrayRef
    columns: np.ndarray

    def load(self) -> np.ndarray:
        return self.ref.array()[:, self.columns]


# ----------------------------------------------------------------------
# Parent-side store
# ----------------------------------------------------------------------
class SharedMatrixStore:
    """Fingerprint-keyed, refcounted registry of published matrices.

    ``checkout(key, array)`` publishes the array under ``key`` (or
    reuses the live/retired segment already holding it) and bumps its
    refcount; ``checkin(key)`` drops it.  Zero-ref entries retire into a
    small FIFO instead of unlinking immediately, so back-to-back phases
    over the same batch pay one publish.
    """

    def __init__(self, retire_capacity: int = _RETIRE_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, list] = {}  # key -> [segment, ref, refcount]
        self._retired: List[str] = []
        self._retire_capacity = int(retire_capacity)

    def checkout(self, key: str, array: np.ndarray) -> SharedArrayRef:
        """Publish ``array`` under ``key`` (idempotent) and add a reference."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                data = np.ascontiguousarray(array)
                segment = _shared_memory.SharedMemory(
                    create=True, size=max(1, data.nbytes)
                )
                np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)[...] = data
                ref = SharedArrayRef(segment.name, data.shape, data.dtype.str)
                self._entries[key] = entry = [segment, ref, 0]
            elif key in self._retired:
                self._retired.remove(key)
            entry[2] += 1
            return entry[1]

    def checkin(self, key: str) -> None:
        """Drop one reference; fully released segments retire (and the
        oldest retiree is unlinked once the buffer is full)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            entry[2] -= 1
            if entry[2] > 0:
                return
            entry[2] = 0
            if key not in self._retired:
                self._retired.append(key)
            while len(self._retired) > self._retire_capacity:
                self._unlink(self._retired.pop(0))

    def _unlink(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        try:
            entry[0].close()
            entry[0].unlink()
        except Exception:  # pragma: no cover - already gone
            pass

    def release_all(self) -> None:
        """Unlink every segment regardless of refcount (process teardown)."""
        with self._lock:
            for key in list(self._entries):
                self._unlink(key)
            self._retired.clear()

    @property
    def n_live(self) -> int:
        with self._lock:
            return len(self._entries)


_STORE: Optional[SharedMatrixStore] = None
_STORE_LOCK = threading.Lock()


def get_shared_store() -> SharedMatrixStore:
    """The process-wide :class:`SharedMatrixStore` (created on demand)."""
    global _STORE
    with _STORE_LOCK:
        if _STORE is None:
            _STORE = SharedMatrixStore()
            atexit.register(_STORE.release_all)
        return _STORE


def use_shm_for(executor, *arrays: np.ndarray) -> bool:
    """Whether these matrices should ship via shared memory.

    Only worth it when chunks actually cross a process boundary
    (``executor.keyed_state``), sharing is enabled, and the matrices are
    big enough that repeated pickling beats one publish.
    """
    if not shm_enabled() or not getattr(executor, "keyed_state", False):
        return False
    return sum(int(a.nbytes) for a in arrays) >= SHM_MIN_BYTES
