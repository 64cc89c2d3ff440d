"""Sharded, resumable campaign execution on the sample-solving engine.

:class:`CampaignRunner` maps the expanded cells of a
:class:`~repro.campaign.spec.CampaignSpec` onto **one** engine executor
(:mod:`repro.engine`) for the whole run.  Because the engine keys its
warm worker state by the compiled constraint system's content
fingerprint (plus solver settings), and all cells of one
``(circuit, scale)`` share one design instance (the spec's
``design_seed`` is campaign-constant), a process pool started for the
first cell of a circuit stays warm across every later cell, budget and
replicate of that circuit — the campaign pays pool/compile start-up per
*design*, not per cell.

Resume discipline: before anything runs, the store's completed
fingerprints are loaded and matching cells are skipped outright.  Each
finished cell is appended durably the moment it completes, so a kill at
any point loses at most the in-flight cell.  The runner is
storage-agnostic: the store and pool it is handed are thin layers over
any :mod:`repro.store` backend (``jsonl:`` or ``sqlite:`` URIs,
resolved by the CLI), and resume/report semantics are identical across
drivers.  ``max_cells`` bounds how many
pending cells one invocation executes — useful for time-boxed CI legs
and for deterministic interruption tests.

Next to the proposed flow, every cell evaluates its configured baseline
strategies (every-FF / criticality / random) **on the same executor and
the same evaluation batch**, at the proposed plan's buffer count, so the
report's comparison columns are equal-area and equal-noise.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.harness import build_baseline_plan
from repro.campaign.pool import ResultPool
from repro.campaign.spec import CampaignCell, CampaignSpec, shard_cells
from repro.campaign.store import CampaignStore, make_record
from repro.core.flow import BufferInsertionFlow
from repro.core.results import FlowResult
from repro.engine import (
    BatchProblem,
    LogProgress,
    create_executor,
    drive_pending_generator,
    drive_pending_generators,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import span as trace_span
from repro.obs.trace import trace_context
from repro.yieldsim.estimator import YieldEstimator

#: Dispatch strategies of :class:`CampaignRunner` (CLI ``--dispatch``).
DISPATCH_CHOICES = ("batched", "sequential")


@dataclass(frozen=True)
class CampaignProgress:
    """One job-level progress tick of a running campaign.

    Emitted by :class:`CampaignRunner` every time a cell's record lands
    in the store — freshly executed (``source="run"``) or materialised
    from the shared result pool (``source="pool"``).  Long-lived callers
    (the service worker's lease heartbeat, progress UIs) hook these
    ticks via the runner's ``on_progress`` callback.

    Attributes
    ----------
    cell_id / fingerprint:
        The committed cell.
    position / total:
        1-based commit position within this invocation's budget.
    seconds:
        Wall-clock the cell took (0 for pool hits).
    source:
        ``"run"`` or ``"pool"``.
    """

    cell_id: str
    fingerprint: str
    position: int
    total: int
    seconds: float
    source: str = "run"

    def as_dict(self) -> Dict[str, object]:
        return {
            "cell_id": self.cell_id,
            "fingerprint": self.fingerprint,
            "position": self.position,
            "total": self.total,
            "seconds": self.seconds,
            "source": self.source,
        }


#: Signature of the runner's ``on_progress`` callback.
ProgressCallback = Callable[[CampaignProgress], None]


def build_design(circuit: str, scale: float, design_seed: int):
    """Build the suite design of one ``(circuit, scale, design_seed)`` key.

    Looks ``build_suite_circuit`` up in :mod:`repro.circuit.suite` at
    call time, so every caching layer above it still goes through that
    one function to build.
    """
    from repro.circuit.suite import build_suite_circuit

    return build_suite_circuit(circuit, scale=scale, seed=design_seed)


@dataclass
class CampaignRunSummary:
    """What one ``run()`` invocation did.

    Attributes
    ----------
    n_cells:
        Cells of this shard (after sharding, before resume skipping).
    n_completed_before:
        Cells already in the store when the run started.
    n_run:
        Cells executed by this invocation.
    n_pool_reused:
        Cells materialized from the shared result pool instead of being
        executed (always 0 without a pool).
    n_remaining:
        Cells still pending when the invocation returned (non-zero when
        ``max_cells`` stopped the run early).
    seconds:
        Wall-clock of this invocation.
    cell_ids_run:
        ``cell_id`` of every cell executed, in execution order.
    """

    n_cells: int
    n_completed_before: int
    n_run: int
    n_remaining: int
    seconds: float
    cell_ids_run: List[str] = field(default_factory=list)
    n_pool_reused: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_cells": self.n_cells,
            "n_completed_before": self.n_completed_before,
            "n_run": self.n_run,
            "n_pool_reused": self.n_pool_reused,
            "n_remaining": self.n_remaining,
            "seconds": self.seconds,
            "cell_ids_run": list(self.cell_ids_run),
        }


@dataclass
class CampaignStatus:
    """Completion state of a campaign spec against a store.

    ``cell_seconds`` maps every *completed* cell's ``cell_id`` to the
    ``runtime_seconds`` of its store record envelope — wall-clock
    bookkeeping, deliberately outside the deterministic result payload.
    """

    name: str
    n_cells: int
    n_completed: int
    pending_cell_ids: List[str] = field(default_factory=list)
    stale_fingerprints: List[str] = field(default_factory=list)
    cell_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.n_completed >= self.n_cells

    @property
    def total_recorded_seconds(self) -> float:
        """Summed wall-clock of every completed cell's record."""
        return float(sum(self.cell_seconds.values()))

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "n_cells": self.n_cells,
            "n_completed": self.n_completed,
            "complete": self.complete,
            "pending_cell_ids": list(self.pending_cell_ids),
            "stale_fingerprints": list(self.stale_fingerprints),
            "cell_seconds": dict(self.cell_seconds),
            "total_recorded_seconds": self.total_recorded_seconds,
        }


def campaign_status(spec: CampaignSpec, store: CampaignStore) -> CampaignStatus:
    """How much of ``spec`` is already completed in ``store``.

    Records whose fingerprint matches no cell of the spec are *stale*
    (the spec changed after they were recorded); they are reported but
    never deleted — re-pointing the spec back at them revives them.
    """
    by_fingerprint = spec.cells_by_fingerprint()
    records = store.load()
    return CampaignStatus(
        name=spec.name,
        n_cells=len(by_fingerprint),
        n_completed=sum(1 for fp in by_fingerprint if fp in records),
        pending_cell_ids=[
            cell.cell_id
            for fp, cell in by_fingerprint.items()
            if fp not in records
        ],
        stale_fingerprints=sorted(set(records) - set(by_fingerprint)),
        cell_seconds={
            # .get: the envelope is wall-clock bookkeeping, not part of
            # the validated schema — a record without it (hand-ingested,
            # older layout) must degrade to 0, not break status polls.
            cell.cell_id: float(records[fp].get("runtime_seconds", 0.0))
            for fp, cell in by_fingerprint.items()
            if fp in records
        },
    )


class CampaignRunner:
    """Execute (or resume) one campaign spec into a result store.

    Parameters
    ----------
    spec / store:
        The campaign matrix and its checkpointed JSONL store.
    executor / jobs:
        Engine backend shared by every cell of the run (results are
        executor-independent, so shards and resumes may mix backends).
    shard_index / shard_count:
        Round-robin shard this invocation is responsible for.
    max_cells:
        Execute at most this many pending cells, then return (``None``:
        run the whole shard).  Pool hits are free and never count
        against this budget.
    pool:
        Optional shared :class:`~repro.campaign.pool.ResultPool`.  Every
        pending cell already pooled is copied into the spec store
        instead of being executed, and every freshly computed record is
        published back, so overlapping specs reuse each other's cells.
    progress:
        ``True`` streams per-cell campaign lines (and per-phase engine
        lines, labelled with the cell id) to stderr.
    on_progress:
        Optional :data:`ProgressCallback` invoked after every committed
        cell (executed or pool-materialised).  The service worker uses
        it to heartbeat its queue lease while a long campaign runs;
        callback failures propagate (a heartbeat that cannot be
        extended must abort the run, not silently continue).
    dispatch:
        ``"batched"`` (default) groups runnable cells by compiled-system
        fingerprint and runs each group's cells pipelined
        (:func:`repro.engine.drive_pending_generators`): a cell's next
        engine phase is dispatched as soon as its last one drains, so one
        warm worker pool serves all cells of a design at once — including
        the baseline sweeps, which ship only ``(plan, step)`` pairs — and
        the parent prepares one cell's phase while the workers run the
        others'.  ``"sequential"`` drives the same per-cell generator one
        cell at a time and commits each cell as it finishes.  Results are
        bit-identical between the two; only the wall clock differs.
    design_builder:
        Optional replacement for :func:`build_design`, called once per
        design the run needs.  The service worker passes a bounded LRU
        over it, so jobs of one worker share built designs; the run
        keeps its own reference to each design either way.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: CampaignStore,
        executor: str = "serial",
        jobs: Optional[int] = None,
        shard_index: int = 0,
        shard_count: int = 1,
        max_cells: Optional[int] = None,
        pool: Optional[ResultPool] = None,
        progress: bool = False,
        dispatch: str = "batched",
        on_progress: Optional[ProgressCallback] = None,
        design_builder: Optional[Callable[[str, float, int], object]] = None,
    ) -> None:
        if max_cells is not None and max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        if dispatch not in DISPATCH_CHOICES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_CHOICES}, got {dispatch!r}"
            )
        self.spec = spec
        self.store = store
        self.executor_name = executor
        self.jobs = jobs
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.max_cells = max_cells
        self.pool = pool
        self.progress = bool(progress)
        self.dispatch = dispatch
        self.on_progress = on_progress
        self._build_design = design_builder or build_design
        self._design_cache: Dict[Tuple[str, float, int], object] = {}

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.progress:
            print(f"[campaign] {message}", file=sys.stderr, flush=True)

    def _design_for(self, cell: CampaignCell):
        key = (cell.circuit, cell.scale, cell.design_seed)
        if key not in self._design_cache:
            self._design_cache[key] = self._build_design(*key)
        return self._design_cache[key]

    # ------------------------------------------------------------------
    def shard(self) -> List[CampaignCell]:
        """The cells this runner is responsible for.

        With a pool attached the partition is pool-aware: cells already
        pooled are round-robined separately from the cells that need a
        real flow run, so multi-job shards balance actual work (see
        :func:`~repro.campaign.spec.shard_cells`).
        """
        pooled = set(self.pool.records()) if self.pool is not None else None
        return shard_cells(
            self.spec.cells(),
            self.shard_index,
            self.shard_count,
            pooled_fingerprints=pooled,
        )

    def run(self) -> CampaignRunSummary:
        """Execute every pending cell of the shard (resuming from the store)."""
        start = time.perf_counter()
        cells = self.shard()
        completed = self.store.fingerprints()
        pending = [cell for cell in cells if cell.fingerprint() not in completed]
        pool_hits = self._materialize_pool_hits(pending)
        if pool_hits:
            hit_ids = set(pool_hits)
            pending = [cell for cell in pending if cell.cell_id not in hit_ids]
        budget = len(pending) if self.max_cells is None else min(self.max_cells, len(pending))
        self._log(
            f"campaign {self.spec.name!r}: {len(cells)} cells in shard "
            f"{self.shard_index + 1}/{self.shard_count}, "
            f"{len(cells) - len(pending) - len(pool_hits)} already complete, "
            f"{len(pool_hits)} reused from the pool, running {budget}"
        )

        run_ids: List[str] = []
        to_run = pending[:budget]
        executor = create_executor(self.executor_name, self.jobs)
        try:
            registry = get_registry()
            if self.dispatch == "batched" and len(to_run) > 1:
                run_ids = self._run_batched(to_run, executor)
            else:
                for cell in to_run:
                    cell_start = time.perf_counter()
                    # The span carries the cell's resume fingerprint; the
                    # trace_context makes every span opened underneath (flow
                    # stages, engine phases, worker-side chunks via payload
                    # labels) attributable to this cell.
                    with trace_span(
                        "campaign.cell",
                        cell=cell.cell_id,
                        fingerprint=cell.fingerprint(),
                        circuit=cell.circuit,
                    ), trace_context(cell=cell.cell_id):
                        record = drive_pending_generator(
                            self._drive_cell(cell, executor, gang_width=1), executor
                        )
                    seconds = time.perf_counter() - cell_start
                    registry.counter("campaign.cells.executed").inc()
                    registry.histogram("campaign.cell.seconds").observe(seconds)
                    self._commit_record(cell, record, len(run_ids) + 1, budget, seconds)
                    run_ids.append(cell.cell_id)
        finally:
            executor.close()
        return CampaignRunSummary(
            n_cells=len(cells),
            n_completed_before=len(cells) - len(pending) - len(pool_hits),
            n_run=len(run_ids),
            n_remaining=len(pending) - len(run_ids),
            seconds=time.perf_counter() - start,
            cell_ids_run=run_ids,
            n_pool_reused=len(pool_hits),
        )

    def _materialize_pool_hits(self, pending: List[CampaignCell]) -> List[str]:
        """Copy pooled records for pending cells into the spec store.

        Returns the ``cell_id`` of every materialized cell.  The record
        is copied verbatim (envelope included), so a report over the
        spec store stays byte-identical to a pool-less run's.
        """
        if self.pool is None or not pending:
            return []
        pooled = self.pool.refresh()
        hits: List[str] = []
        for cell in pending:
            record = pooled.get(cell.fingerprint())
            if record is None:
                continue
            self.store.append(record)
            hits.append(cell.cell_id)
            if self.on_progress is not None:
                self.on_progress(
                    CampaignProgress(
                        cell_id=cell.cell_id,
                        fingerprint=cell.fingerprint(),
                        position=len(hits),
                        total=len(pending),
                        seconds=0.0,
                        source="pool",
                    )
                )
        registry = get_registry()
        registry.counter("campaign.pool.hits").inc(len(hits))
        registry.counter("campaign.pool.misses").inc(len(pending) - len(hits))
        return hits

    def _commit_record(
        self,
        cell: CampaignCell,
        record: Dict[str, object],
        position: int,
        budget: int,
        seconds: float,
    ) -> None:
        """Durably append one finished cell and log its headline numbers."""
        self.store.append(record)
        if self.pool is not None:
            self.pool.publish(record)
        if self.on_progress is not None:
            self.on_progress(
                CampaignProgress(
                    cell_id=cell.cell_id,
                    fingerprint=cell.fingerprint(),
                    position=position,
                    total=budget,
                    seconds=seconds,
                    source="run",
                )
            )
        self._log(
            f"cell {position}/{budget} {cell.cell_id}: "
            f"Y {100 * record['result']['improved_yield']:.2f} % "
            f"(Nb {record['result']['n_buffers']}) "
            f"in {seconds:.2f} s"
        )

    # ------------------------------------------------------------------
    # Batched (gang) dispatch
    # ------------------------------------------------------------------
    def _group_key(self, cell: CampaignCell) -> Tuple[str, str]:
        """Cells sharing this key share warm engine worker state: same
        compiled constraint system, same per-sample solver backend."""
        from repro.core.compiled import ensure_compiled_system

        design = self._design_for(cell)
        return (ensure_compiled_system(design).fingerprint(), cell.solver)

    def _run_batched(self, cells: List[CampaignCell], executor) -> List[str]:
        """Run the pending cells as fingerprint-grouped gangs.

        Each group runs pipelined on the shared warm pool
        (:meth:`_run_group`).  Results are bit-identical to sequential
        dispatch — phase inputs are purely per-cell and every phase
        merges by sample index — so only the wall clock changes.
        Finished records are committed per group in cell order, keeping
        resume semantics (a kill loses at most the in-flight group).
        """
        order: List[Tuple[str, str]] = []
        groups: Dict[Tuple[str, str], List[CampaignCell]] = {}
        for cell in cells:
            key = self._group_key(cell)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(cell)
        self._log(
            f"batched dispatch: {len(cells)} cells in {len(groups)} "
            f"compiled-system group(s) on {executor.name}"
        )

        run_ids: List[str] = []
        for key in order:
            members = groups[key]
            for cell, (record, seconds) in zip(
                members, self._run_group(members, executor), strict=True
            ):
                run_ids.append(cell.cell_id)
                self._commit_record(cell, record, len(run_ids), len(cells), seconds)
        return run_ids

    def _run_group(
        self, members: List[CampaignCell], executor
    ) -> List[Tuple[Dict[str, object], float]]:
        """Run one gang of same-fingerprint cells pipelined
        (:func:`repro.engine.drive_pending_generators`): each cell's next
        engine phase is dispatched as soon as its last one drains, while
        the workers still run the other cells' chunks.  Returns each
        cell's ``(record, seconds)``, in ``members`` order.
        """
        return drive_pending_generators(
            [self._gang_cell(cell, executor, gang_width=len(members)) for cell in members],
            executor,
        )

    def _gang_cell(self, cell: CampaignCell, executor, gang_width: int):
        """:meth:`_drive_cell` as one member of a gang, returning
        ``(record, seconds)`` and recording the cell's completion.

        Each step of the cell's generator runs inside its
        ``trace_context(cell=...)``, a context and not a span: the gang's
        cells interleave on this thread, so nothing may stay open across
        a suspension.  Every span and chunk label produced while this
        cell's generator runs inherits the cell id.
        """
        start = time.perf_counter()
        generator = self._drive_cell(cell, executor, gang_width=gang_width)
        value = None
        try:
            while True:
                with trace_context(cell=cell.cell_id):
                    try:
                        pending = generator.send(value)
                    except StopIteration as stop:
                        record = stop.value
                        break
                value = yield pending
        finally:
            generator.close()
        seconds = time.perf_counter() - start
        # Completion marker (near-zero duration — the cell's wall clock,
        # inflated by interleaved peers, rides in the attrs instead).
        with trace_span(
            "campaign.cell",
            cell=cell.cell_id,
            fingerprint=cell.fingerprint(),
            circuit=cell.circuit,
            seconds=round(seconds, 6),
        ):
            pass
        registry = get_registry()
        registry.counter("campaign.cells.executed").inc()
        registry.histogram("campaign.cell.seconds").observe(seconds)
        return record, seconds

    def _drive_cell(self, cell: CampaignCell, executor, gang_width: int):
        """Generator running one cell cooperatively (flow + baselines).

        Yields :class:`~repro.engine.PendingPhase` objects and returns
        the finished store record; the caller supplies each phase's
        result via ``send`` (:meth:`_run_group` for a gang, or
        :func:`~repro.engine.drive_pending_generator` one cell at a
        time).
        """
        design = self._design_for(cell)
        engine_progress = LogProgress(prefix=cell.cell_id) if self.progress else None
        cell_start = time.perf_counter()
        flow = BufferInsertionFlow(
            design,
            cell.flow_config(),
            executor=executor,
            progress=engine_progress,
            gang_width=gang_width,
        )
        result = yield from flow.drive(executor)
        baselines = yield from self._drive_baselines(cell, design, result, flow.last_scheduler)
        runtime = time.perf_counter() - cell_start
        return make_record(
            cell,
            self._cell_payload(design, result, baselines),
            runtime_seconds=runtime,
        )

    def _drive_baselines(self, cell: CampaignCell, design, result: FlowResult, scheduler):
        """Evaluate the cell's baseline strategies after its flow.

        All strategies are scored on **one** evaluation batch (drawn from
        a seed derived from the cell seed) and capped at the proposed
        plan's buffer count, so the comparison is equal-noise and
        equal-area.  Every sweep is prepared on the *flow's* scheduler
        and dispatched under its solver key: only the small ``(plan,
        step)`` pairs cross the process boundary, so the baselines of a
        cell (or of a whole gang) run on the flow's warm pool.  The one
        :class:`~repro.engine.BatchProblem` is hashed at most once, and
        its fingerprint keys the shared-memory segments every sweep
        reuses.
        """
        if not cell.baselines:
            return {}
        from repro.campaign.spec import _derive_seed

        eval_seed = _derive_seed(cell.seed, "baseline-eval")
        estimator = YieldEstimator(design, n_samples=cell.n_eval_samples, rng=eval_seed)
        samples = estimator.draw_samples()
        analysis = estimator.period_analysis(samples)
        period = float(result.target_period)
        original = float(analysis.yield_at(period))
        batch = BatchProblem(samples.setup_bounds(period), samples.hold_bounds())
        reports: Dict[str, Dict[str, float]] = {}
        for name in cell.baselines:
            plan = build_baseline_plan(
                name,
                design,
                result.target_period,
                n_buffers=result.plan.n_buffers,
                rng=_derive_seed(cell.seed, "baseline-plan", name),
            )
            step = plan.buffers[0].step if plan.buffers else 0.0
            passed, _ = yield scheduler.prepare_evaluate_plan(
                batch, plan, float(step), phase="baseline_eval"
            )
            tuned = float(np.mean(passed)) if passed.size else 1.0
            reports[name] = {
                "n_buffers": int(plan.n_buffers),
                "original_yield": original,
                "tuned_yield": tuned,
                "yield_improvement": tuned - original,
            }
        return reports

    # ------------------------------------------------------------------
    @staticmethod
    def _cell_payload(
        design, result: FlowResult, baselines: Dict[str, Dict[str, float]]
    ) -> Dict[str, object]:
        """The deterministic result payload of one finished cell."""
        stats = design.netlist.stats()
        return {
            "n_flip_flops": int(stats["flip_flops"]),
            "n_gates": int(stats["gates"]),
            "target_period": float(result.target_period),
            "mu_period": float(result.mu_period),
            "sigma_period": float(result.sigma_period),
            "n_buffers": int(result.plan.n_buffers),
            "n_physical_buffers": int(result.plan.n_physical_buffers),
            "average_range_steps": float(result.plan.average_range_steps),
            "original_yield": float(result.original_yield),
            "improved_yield": float(result.improved_yield),
            "yield_improvement": float(result.yield_improvement),
            "plan": result.plan.as_dict(),
            "baselines": baselines,
        }
