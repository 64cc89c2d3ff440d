"""Per-layer tracing of the repro package from outside it.

The traced benchmark run wraps the public functions of each layer under
the names their callers look up (a function imported with ``from X
import f`` is replaced in every ``repro`` module that holds it, a method
on its class), records one span per call in memory, and writes the spans
out when the run ends.  Nothing under ``src/`` is edited: uninstalling
restores every original attribute, so the untraced operations of the
same process run the unmodified program.

A span is ``(name, start, end, parent, thread, run)``; ``run`` is the
operation index, or ``-1`` for set-up.  :func:`layer_metrics` derives
each layer's inclusive time, self time and counts from the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SETUP_RUN = -1

# (layer, module, attribute path, kind).  ``func`` patches the function
# in every loaded repro module that holds it; ``callsite`` patches only
# the named module's global (Bellman-Ford as the per-sample solver calls
# it, not as the configurator does); ``method`` and ``classmethod``
# patch the class.
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("circuit.build", "repro.circuit.suite", "build_suite_circuit", "func"),
    ("circuit.generate", "repro.circuit.generators", "generate_sequential_circuit", "func"),
    ("circuit.design", "repro.circuit.design", "CircuitDesign.from_netlist", "classmethod"),
    ("circuit.min_ff_pitch", "repro.circuit.design", "CircuitDesign.min_ff_pitch", "method"),
    ("timing.extract", "repro.timing.constraints", "extract_constraint_graph", "func"),
    ("timing.propagate", "repro.timing.propagate", "all_ff_pair_delay_forms", "func"),
    ("timing.skew", "repro.timing.skew", "hold_aware_random_skews", "func"),
    ("timing.period", "repro.timing.period", "sample_min_periods", "func"),
    ("compiled.build", "repro.core.compiled", "ensure_compiled_system", "func"),
    ("compiled.sample", "repro.core.compiled", "CompiledConstraintSystem.sample", "method"),
    ("variation.sample", "repro.variation.sampling", "MonteCarloSampler.sample", "method"),
    ("variation.evaluate", "repro.variation.sampling", "MonteCarloSampler.evaluate_array", "method"),
    ("solver.solve", "repro.core.sample_solver", "PerSampleSolver.solve", "method"),
    ("solver.bf", "repro.core.sample_solver", "solve_difference_system", "callsite"),
    ("solver.lp", "repro.milp.model", "Model.solve", "method"),
    ("engine.fingerprint", "repro.engine.cache", "fingerprint_array", "func"),
    ("engine.fingerprint", "repro.engine.cache", "fingerprint_arrays", "func"),
    ("engine.dispatch", "repro.engine.gang", "run_pending", "func"),
    ("engine.dispatch", "repro.engine.gang", "gang_dispatch", "func"),
    ("tuning.configure", "repro.tuning.configurator",
     "PostSiliconConfigurator.configure_sample", "method"),
    ("baselines.build", "repro.baselines.harness", "build_baseline_plan", "func"),
    ("campaign.run", "repro.campaign.runner", "CampaignRunner.run", "method"),
    ("campaign.report", "repro.campaign.report", "build_report", "func"),
    ("campaign.report", "repro.campaign.report", "format_report", "func"),
    ("store.append", "repro.store.base", "StoreBackend.append", "method"),
    ("store.history", "repro.store.base", "StoreBackend.history", "method"),
    ("store.load", "repro.store.base", "StoreBackend.load", "method"),
    ("queue.submit", "repro.service.queue", "JobQueue.submit", "method"),
    ("queue.claim", "repro.service.queue", "JobQueue.claim", "method"),
    ("queue.complete", "repro.service.queue", "JobQueue.complete", "method"),
    ("queue.heartbeat", "repro.service.queue", "JobQueue.heartbeat", "method"),
    ("queue.job", "repro.service.queue", "JobQueue.job", "method"),
    ("worker.run_job", "repro.service.worker", "CampaignWorker.run_job", "method"),
    ("http.submit", "repro.service.client", "ServiceClient.submit", "method"),
    ("http.status", "repro.service.client", "ServiceClient.job", "method"),
    ("http.report", "repro.service.client", "ServiceClient.report", "method"),
)

#: Modules imported before patching, so every ``from X import f`` copy
#: of a wrapped function already exists and is replaced too.
CALLER_MODULES = (
    "repro.core.flow",
    "repro.campaign.runner",
    "repro.service",
    "repro.yieldsim.estimator",
    "repro.store.sqlite",
    "repro.store.jsonl",
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, float] = {}
        self.run = SETUP_RUN
        self.main_thread = threading.get_ident()
        self._pid = os.getpid()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[int]:
        if os.getpid() != self._pid:
            # A forked engine worker inherits the patches; its spans
            # could never reach this process, so it records nothing.
            return None
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(None)
        nested = any(frame[1] == name for frame in stack)
        stack.append((index, name, nested, time.perf_counter()))
        return index

    def close(self, index: Optional[int]) -> None:
        if index is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        _, name, nested, start = stack.pop()
        parent = stack[-1][0] if stack else None
        self.spans[index] = (
            name, start, end, parent, threading.get_ident(), self.run, nested
        )

    def count(self, name: str, amount: float = 1) -> None:
        if os.getpid() != self._pid:
            return
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable, after: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if after is not None and token is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, module, name: str, replacement, everywhere: bool) -> None:
        """Replace ``module.name`` and, with ``everywhere``, every
        ``from module import name`` copy held by a loaded repro module."""
        original = getattr(module, name)
        holders = [module]
        if everywhere:
            holders = [
                held for key, held in list(sys.modules.items())
                if key.startswith("repro") and getattr(held, name, None) is original
            ]
        for holder in holders:
            self._set(holder, name, replacement)

    def install(self) -> None:
        """Patch every layer function (undone by :meth:`uninstall`)."""
        for module in CALLER_MODULES:
            importlib.import_module(module)
        for layer, module_name, path, kind in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            after = _AFTER_HOOKS.get(layer)
            if kind in ("func", "callsite"):
                wrapper = self._span_wrapper(layer, getattr(module, path), after)
                self._replace_function(module, path, wrapper, everywhere=kind == "func")
                continue
            class_name, attr = path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if kind == "classmethod":
                wrapped = classmethod(self._span_wrapper(layer, raw.__func__, after))
            else:
                wrapped = self._span_wrapper(layer, raw, after)
            self._set(cls, attr, wrapped)
        self._install_store_transactions()
        self._install_counters()

    def _install_store_transactions(self) -> None:
        """``transaction()`` returns a context manager: the span covers the
        critical section, and appends made inside it count as appends."""
        from repro.store.base import StoreBackend, StoreTransaction

        tracer = self
        original = StoreBackend.__dict__["transaction"]

        class _TracedTransaction:
            def __init__(self, context) -> None:
                self._context = context
                self._token = None

            def __enter__(self):
                self._token = tracer.open("store.transaction")
                return self._context.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self._context.__exit__(*exc_info)
                finally:
                    tracer.close(self._token)

        def transaction(backend):
            return _TracedTransaction(original(backend))

        self._set(StoreBackend, "transaction", transaction)
        for cls in StoreTransaction.__subclasses__():
            if "append" in cls.__dict__:
                self._set(cls, "append", self._span_wrapper("store.append", cls.__dict__["append"]))

    def _install_counters(self) -> None:
        """Count-only hooks on calls too frequent or too cheap for spans."""
        from repro.engine import batch, cache, shm

        tracer = self
        get = cache.ResultCache.__dict__["get"]

        def cache_get(self_cache, key, *args, **kwargs):
            tracer.count("engine.cache_hits" if key in self_cache else "engine.cache_misses")
            return get(self_cache, key, *args, **kwargs)

        self._set(cache.ResultCache, "get", cache_get)

        checkout = shm.SharedMatrixStore.__dict__["checkout"]

        def shm_checkout(store, key, array):
            if key not in store._entries:
                tracer.count("engine.shm_bytes", array.nbytes)
            return checkout(store, key, array)

        self._set(shm.SharedMatrixStore, "checkout", shm_checkout)

        make_chunks = batch.make_chunks

        def counted_make_chunks(*args, **kwargs):
            chunks = make_chunks(*args, **kwargs)
            tracer.count("engine.chunks", len(chunks))
            return chunks

        self._replace_function(batch, "make_chunks", counted_make_chunks, everywhere=True)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def finished_spans(self) -> List[tuple]:
        """Closed spans with their id appended:
        ``(name, start, end, parent, thread, run, nested, id)``."""
        return [span + (index,) for index, span in enumerate(self.spans) if span is not None]

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (one per span, in open order)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, thread, run, _, index in self.finished_spans():
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "thread": thread, "run": run},
                    sort_keys=True,
                ) + "\n")


def _after_solve(tracer: Tracer, args, result) -> None:
    if not getattr(result, "feasible", True):
        tracer.count("solver.unrescuable")


def _after_history(tracer: Tracer, args, result) -> None:
    tracer.count("store.history_rows", len(result))


def _after_claim(tracer: Tracer, args, result) -> None:
    if result is None:
        tracer.count("queue.claim_empty")


_AFTER_HOOKS = {
    "solver.solve": _after_solve,
    "store.history": _after_history,
    "queue.claim": _after_claim,
}

#: Layers timed as inclusive seconds (``<layer>_s``) in the metrics.
TIMED_LAYERS = (
    "circuit.generate", "circuit.design", "circuit.min_ff_pitch",
    "timing.extract", "timing.propagate", "timing.skew", "timing.period",
    "compiled.build", "compiled.sample", "variation.sample", "variation.evaluate",
    "solver.solve", "solver.bf", "solver.lp", "engine.fingerprint",
    "tuning.configure", "baselines.build", "campaign.run", "campaign.report",
    "store.append", "store.history", "store.load", "store.transaction",
    "queue.submit", "queue.claim", "queue.complete", "queue.heartbeat", "queue.job",
    "worker.run_job",
)
CALL_COUNTED = {
    "solver.solve": "solver.solve_calls",
    "solver.bf": "solver.bf_calls",
    "solver.lp": "solver.lp_calls",
    "tuning.configure": "tuning.configure_calls",
    "store.append": "store.append_calls",
    "store.history": "store.history_calls",
    "circuit.build": "campaign.design_builds",
}
HTTP_LAYERS = ("http.submit", "http.status", "http.report")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (90 at most)."""
    if n < 20:
        return 50.0
    return min(90.0, 100.0 * (1.0 - 10.0 / n))


def layer_metrics(
    spans: Sequence[tuple],
    counts: Dict[str, float],
    windows: Dict[int, Tuple[float, float]],
    main_thread: int,
    entry_layers: Sequence[str] = (),
) -> Dict[str, float]:
    """Per-layer metrics for one set-up plus one average operation.

    ``windows`` maps each traced operation's run id to its measured
    ``(start, end)``.  Time and count metrics add the set-up spans
    (``run == -1``) to the operation spans divided by the number of
    operations.  ``engine.dispatch_s`` is the dispatch layer's self time.
    ``trace.coverage`` is the share of the operations' wall time covered
    by top-level spans of the benchmark thread, below the workload's own
    ``entry_layers`` and clipped to the operation windows.
    """
    n_ops = len(windows)
    op_wall = sum(end - start for start, end in windows.values())
    per_op = 1.0 / max(n_ops, 1)
    weight = [per_op if span[5] != SETUP_RUN else 1.0 for span in spans]
    child_time = [0.0] * len(spans)
    # Parent ids index the tracer's full span list; map them onto the
    # positions of the finished spans passed in.
    by_id = {span[7]: position for position, span in enumerate(spans)}
    for span in spans:
        parent = span[3]
        if parent is not None and parent in by_id:
            child_time[by_id[parent]] += span[2] - span[1]

    inclusive: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    latencies: Dict[str, List[float]] = {name: [] for name in HTTP_LAYERS}
    covered = 0.0
    for position, span in enumerate(spans):
        name, start, end, parent, thread, run, nested = span[:7]
        duration = end - start
        w = weight[position]
        calls[name] = calls.get(name, 0.0) + w
        self_time[name] = self_time.get(name, 0.0) + w * (duration - child_time[position])
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + w * duration
        if name in latencies and run != SETUP_RUN:
            latencies[name].append(1000.0 * duration)
        if run == SETUP_RUN or thread != main_thread or name in entry_layers:
            continue
        parent_name = spans[by_id[parent]][0] if parent in by_id else None
        if (parent_name is None or parent_name in entry_layers) and run in windows:
            low, high = windows[run]
            covered += max(0.0, min(end, high) - max(start, low))

    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = inclusive.get(layer, 0.0)
    for layer, metric in CALL_COUNTED.items():
        metrics[metric] = calls.get(layer, 0.0)
    metrics["engine.dispatch_s"] = self_time.get("engine.dispatch", 0.0)
    metrics["engine.fingerprint_s"] = inclusive.get("engine.fingerprint", 0.0)
    metrics["solver.region_self_s"] = max(
        0.0, metrics["solver.solve_s"] - metrics["solver.bf_s"] - metrics["solver.lp_s"]
    )
    solves = calls.get("solver.solve", 0.0)
    metrics["solver.unrescuable_ratio"] = (
        counts.get("solver.unrescuable", 0.0) * per_op / solves if solves else 0.0
    )
    hits = counts.get("engine.cache_hits", 0.0)
    misses = counts.get("engine.cache_misses", 0.0)
    metrics["engine.cache_hits"] = hits * per_op
    metrics["engine.cache_misses"] = misses * per_op
    metrics["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["engine.chunks"] = counts.get("engine.chunks", 0.0) * per_op
    metrics["engine.shm_bytes"] = counts.get("engine.shm_bytes", 0.0) * per_op
    metrics["store.history_rows"] = counts.get("store.history_rows", 0.0) * per_op
    claims = calls.get("queue.claim", 0.0)
    metrics["queue.claim_empty_ratio"] = (
        counts.get("queue.claim_empty", 0.0) * per_op / claims if claims else 0.0
    )
    all_requests: List[float] = []
    for layer in HTTP_LAYERS:
        values = latencies[layer]
        all_requests.extend(values)
        metrics[f"{layer}_p50_ms"] = percentile(values, 50)
        metrics[f"{layer}_p90_ms"] = percentile(values, tail_percentile(len(values)))
    metrics["http.request_p90_ms"] = percentile(all_requests, tail_percentile(len(all_requests)))
    metrics["trace.coverage"] = covered / op_wall if op_wall > 0 else 0.0
    metrics["trace.unattributed_s"] = max(0.0, op_wall - covered) * per_op
    return metrics


def self_time_table(spans: Sequence[tuple], n_ops: int) -> Dict[str, Dict[str, float]]:
    """Per layer over the operation spans: self and inclusive seconds and
    calls, each per operation; the rows of the attribution table."""
    per_op = 1.0 / max(n_ops, 1)
    by_id = {span[7]: position for position, span in enumerate(spans)}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] in by_id:
            child_time[by_id[span[3]]] += span[2] - span[1]
    table: Dict[str, Dict[str, float]] = {}
    for position, span in enumerate(spans):
        if span[5] == SETUP_RUN:
            continue
        row = table.setdefault(span[0], {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0.0})
        duration = span[2] - span[1]
        row["self_s"] += per_op * (duration - child_time[position])
        if not span[6]:
            row["inclusive_s"] += per_op * duration
        row["calls"] += per_op
    return table
