"""The sampling-based buffer-insertion flow (paper Fig. 3).

:class:`BufferInsertionFlow` wires together the substrates into the three
steps of the paper:

**Step 1 — floating lower bounds** (Sec. III-A).  Every flip-flop is a
buffer candidate with a range window of the maximum width ``tau`` floating
around zero.  For every Monte-Carlo training sample the per-sample solver
minimises the number of adjusted buffers and concentrates the tuning
values toward zero.  Rarely-used buffers are pruned (III-A2); samples whose
solution touched a pruned buffer are re-solved on the reduced candidate
set.  A window of width ``tau`` is then slid over each buffer's tuning
histogram and the best placement fixes the lower bound ``r_i`` (III-A4).

**Step 2 — fixed lower bounds** (Sec. III-B).  With the windows fixed the
sampling pass is repeated (skipped when almost no step-1 tuning falls
outside its window), the tuning values are concentrated toward their
per-buffer average and the final ranges are the observed min/max values.

**Step 3 — grouping** (Sec. III-C).  Buffers with mutually correlated
tuning values and small physical distance share one physical buffer; an
optional designer cap drops the least-used groups.

Finally the resulting plan is evaluated on a *fresh* batch of samples with
the post-silicon configurator, yielding the ``Y`` / ``Yi`` numbers of
Table I.

**Compiled constraint system.**  The statistical layer is consumed
through the design's :class:`~repro.core.compiled.CompiledConstraintSystem`
(built once, cached on the design): training and evaluation batches are
evaluated as single matrix multiplications over the stacked setup/hold
coefficient matrices, and the per-sample solver runs on the compiled
topology view.

**Execution engine hand-off.**  All three sample sweeps (step 1, step 2
and the final evaluation) are embarrassingly parallel, so the flow does
not loop over samples itself: it builds one
:class:`~repro.engine.BatchProblem` per batch and hands it to a
:class:`~repro.engine.SampleScheduler`, which skips clean samples,
consults a content-keyed :class:`~repro.engine.ResultCache` (optionally
LRU-bounded via :attr:`FlowConfig.cache_size`) and fans the
remaining solves out over the executor configured by
:attr:`FlowConfig.executor` / :attr:`FlowConfig.jobs` (``serial`` or
``processes``).  Warm worker state is keyed by the compiled system's
content fingerprint, so one process pool serves the solve phases, the
final yield sweep
(:meth:`~repro.engine.SampleScheduler.prepare_evaluate_plan` ships only
the buffer plan and per-chunk sample-matrix slices) and any further flow
runs on the same design.  The pruning re-solve of III-A2 is
incremental: solutions that never touched a pruned buffer are *adopted*
into the cache under the reduced candidate mask, so only the affected
samples are solved again.  Results are reduced in sample-index order,
which makes the flow output bit-identical across executors for a fixed
seed; per-phase engine counters are returned in
:attr:`~repro.core.results.FlowResult.engine_stats`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.circuit.design import CircuitDesign
from repro.core.bounds import WindowAssignment, assign_lower_bounds, outside_window_fraction
from repro.core.compiled import ensure_compiled_system
from repro.core.config import FlowConfig
from repro.core.grouping import group_buffers
from repro.core.pruning import prune_buffers
from repro.core.results import Buffer, BufferPlan, FlowResult, StepArtifacts
from repro.core.sample_solver import (
    PerSampleSolver,
    SampleSolution,
)
from repro.engine import (
    PHASE_PRUNE_RESOLVE,
    PHASE_STEP1_TRAIN,
    PHASE_STEP2_INTERIM,
    PHASE_STEP2_TRAIN,
    BatchProblem,
    EngineStats,
    ResultCache,
    SampleScheduler,
    create_executor,
    drive_pending_generator,
)
from repro.obs.trace import span as trace_span
from repro.timing.period import sample_min_periods
from repro.utils.rng import spawn_rngs
from repro.utils.timers import Stopwatch
from repro.variation.sampling import MonteCarloSampler


@contextmanager
def _stage(stopwatch: Stopwatch, name: str, traced: bool = True) -> Iterator[None]:
    """Measure one flow stage on the stopwatch and as a ``flow.stage``
    span, so trace timelines and :attr:`FlowResult.runtime_seconds` tell
    the same story under the same stage names.

    ``traced=False`` keeps the stopwatch but skips the span: stages that
    suspend at a gang-dispatch yield point must not hold a span open
    across the suspension — with several cells interleaving on one
    thread, the tracer's per-thread span stack would misattribute
    parents.  (Sequentially driven flows keep their spans.)
    """
    if traced:
        with trace_span("flow.stage", stage=name), stopwatch.measure(name):
            yield
    else:
        with stopwatch.measure(name):
            yield


class BufferInsertionFlow:
    """Run the complete sampling-based buffer insertion for one design.

    Parameters
    ----------
    design:
        The circuit design (netlist + placement + clocking + variation).
    config:
        Flow configuration; see :class:`~repro.core.config.FlowConfig`.
    executor:
        Optional externally-owned :class:`repro.engine.Executor`; when
        given it overrides :attr:`FlowConfig.executor` /
        :attr:`FlowConfig.jobs` and is *not* closed by the flow, so one
        executor can serve many flow runs (a process pool stays warm
        across runs on one design: its worker state is keyed by the
        compiled system's content).
    progress:
        Optional :class:`repro.engine.ProgressReporter` receiving
        per-phase sample progress.
    gang_width:
        Number of peer flows expected to dispatch alongside this one in
        gang mode (see :mod:`repro.engine.gang`); affects only chunk
        sizing, never results.
    """

    def __init__(
        self,
        design: CircuitDesign,
        config: Optional[FlowConfig] = None,
        executor=None,
        progress=None,
        gang_width: int = 1,
    ) -> None:
        self.design = design
        self.config = config or FlowConfig()
        self.compiled = ensure_compiled_system(design)
        self.topology = self.compiled.topology
        self._executor = executor
        self._progress = progress
        self.gang_width = max(1, int(gang_width))
        #: The scheduler of the most recent (or in-flight) run — exposed
        #: so callers ganging several flows can dispatch follow-up
        #: evaluations (e.g. campaign baselines) on the same warm
        #: worker-state key.
        self.last_scheduler = None

    # ------------------------------------------------------------------
    def run(self) -> FlowResult:
        """Execute the full flow and return the result."""
        cfg = self.config
        owns_executor = self._executor is None
        executor = self._executor if self._executor is not None else create_executor(
            cfg.executor, cfg.jobs
        )
        try:
            with trace_span(
                "flow.run", n_samples=cfg.n_samples, n_eval_samples=cfg.n_eval_samples
            ):
                return drive_pending_generator(self._drive(executor), executor)
        finally:
            if owns_executor:
                executor.close()

    def drive(self, executor) -> "Iterator[object]":
        """Cooperative form of :meth:`run` for gang dispatch.

        Returns a generator that yields
        :class:`~repro.engine.PendingPhase` objects at every engine
        dispatch point and expects the phase's result to be sent back;
        its return value is the :class:`FlowResult`.  Driving it with
        :func:`repro.engine.drive_pending_generator` reproduces
        :meth:`run` bit for bit; interleaving several flows' generators
        (the campaign runner's batched mode) changes only the wall
        clock.  The caller owns ``executor``.
        """
        return self._drive(executor)

    def _drive(self, executor):
        cfg = self.config
        stopwatch = Stopwatch()
        train_rng, eval_rng, solver_rng = spawn_rngs(cfg.seed, 3)

        # ------------------------------------------------------------------
        # Sampling and target period
        # ------------------------------------------------------------------
        with _stage(stopwatch, "sampling"):
            train_sampler = MonteCarloSampler(self.design.variation_model, rng=train_rng)
            train_batch = train_sampler.sample(cfg.n_samples)
            train_samples = self.compiled.sample(train_batch, sampler=train_sampler)
            period_analysis = sample_min_periods(self.design, constraint_samples=train_samples)
        mu_period = period_analysis.mean
        sigma_period = period_analysis.std
        if cfg.target_period is not None:
            target_period = float(cfg.target_period)
        else:
            target_period = period_analysis.target_period(cfg.target_sigma)

        spec = cfg.buffer_spec
        max_range = spec.max_range(target_period)
        step = spec.step_size(target_period) if spec.discrete else 0.0
        scale = step if spec.discrete else 1.0

        setup_bounds = train_samples.setup_bounds(target_period) / scale
        hold_bounds = train_samples.hold_bounds() / scale
        if spec.discrete:
            setup_bounds = np.floor(setup_bounds + 1e-9)
            hold_bounds = np.floor(hold_bounds + 1e-9)

        n_ffs = self.topology.n_ffs
        n_samples = cfg.n_samples
        solver = PerSampleSolver(
            self.topology,
            backend=cfg.solver,
            pool_hops=cfg.pool_hops,
            max_pool_expansions=cfg.max_pool_expansions,
            concentrate=cfg.concentrate,
            lp_backend=cfg.lp_backend,
            integral=spec.discrete,
        )

        # The engine substrate: one batch description of the training
        # samples, a scheduler fanning solves out over the executor, and a
        # keyed cache making the pruning re-solve incremental.  The
        # scheduler's warm worker state is keyed by the compiled system's
        # content, so repeated runs on one design share worker pools.
        train_problem = BatchProblem(setup_bounds, hold_bounds)
        engine_stats = EngineStats()
        solve_cache = ResultCache(max_entries=cfg.cache_size)
        scheduler = SampleScheduler(
            solver,
            executor=executor,
            cache=solve_cache,
            stats=engine_stats,
            progress=self._progress,
            chunk_size=cfg.chunk_size,
            gang_width=self.gang_width,
        )
        self.last_scheduler = scheduler
        # Stages that suspend at a dispatch point drop their trace span
        # when several flows interleave on one thread (see _stage).
        seq = self.gang_width == 1

        # ------------------------------------------------------------------
        # Step 1: floating lower bounds
        # ------------------------------------------------------------------
        float_lower = np.full(n_ffs, -float(spec.n_steps) if spec.discrete else -max_range)
        float_upper = np.full(n_ffs, float(spec.n_steps) if spec.discrete else max_range)

        with _stage(stopwatch, "step1_sampling", traced=seq):
            candidates = np.ones(n_ffs, dtype=bool)
            step1_solutions = yield scheduler.prepare_solve(
                train_problem, float_lower, float_upper, candidates, None, phase=PHASE_STEP1_TRAIN
            )
            usage1 = self._usage_counts(step1_solutions, n_ffs)

        with _stage(stopwatch, "step1_pruning", traced=seq):
            pruning = prune_buffers(
                self.topology,
                usage1,
                min_count=cfg.prune_min_count,
                critical_count=cfg.prune_critical_count,
            )
            candidates = pruning.kept
            # Re-solve only the samples whose solution used a pruned buffer:
            # untouched solutions are adopted into the cache under the
            # reduced candidate mask and come back as hits.  Re-solves use
            # the configured backend — for solver="milp" this deliberately
            # differs from the pre-engine code, which always re-solved with
            # the graph heuristic regardless of the configured backend.
            scheduler.adopt(
                train_problem,
                float_lower,
                float_upper,
                candidates,
                None,
                {
                    index: solution
                    for index, solution in enumerate(step1_solutions)
                    if solution is not None
                    and all(candidates[ff] for ff in solution.tunings)
                },
            )
            step1_solutions = yield scheduler.prepare_solve(
                train_problem, float_lower, float_upper, candidates, None, phase=PHASE_PRUNE_RESOLVE
            )
            usage1 = self._usage_counts(step1_solutions, n_ffs)
        # Step 2 changes the bounds (and later the targets), so no step-1
        # cache entry can ever hit again — free them up front.
        solve_cache.clear()

        step1 = self._collect_artifacts(step1_solutions, usage1)

        with _stage(stopwatch, "step1_bounds"):
            window_width = float(spec.n_steps) if spec.discrete else max_range
            window_step = 1.0 if spec.discrete else max_range / spec.n_steps
            windows = assign_lower_bounds(
                step1.tuning_values, window_width, step=window_step, require_zero=True
            )

        # ------------------------------------------------------------------
        # Step 2: fixed lower bounds
        # ------------------------------------------------------------------
        candidate_ffs = [
            i for i in range(n_ffs) if candidates[i] and usage1[i] > 0
        ]
        candidate_mask = np.zeros(n_ffs, dtype=bool)
        candidate_mask[candidate_ffs] = True

        fixed_lower = np.zeros(n_ffs)
        fixed_upper = np.zeros(n_ffs)
        for i in candidate_ffs:
            name = self.topology.ff_names[i]
            window = windows.get(name)
            if window is None:
                window = WindowAssignment(-window_width / 2, window_width / 2, 0, 0)
                windows[name] = window
            fixed_lower[i] = window.lower
            fixed_upper[i] = window.upper

        outside_fraction = outside_window_fraction(step1.tuning_values, windows, n_samples)

        averages = np.zeros(n_ffs)
        with _stage(stopwatch, "step2_sampling", traced=seq):
            if outside_fraction >= cfg.skip_step2_threshold:
                # Re-run the count-minimisation with the fixed windows first
                # (Sec. III-B1), then compute the averages from its values.
                interim = yield scheduler.prepare_solve(
                    train_problem,
                    fixed_lower,
                    fixed_upper,
                    candidate_mask,
                    None,
                    phase=PHASE_STEP2_INTERIM,
                )
                averages = self._average_tunings(interim, n_ffs, fixed_lower, fixed_upper)
            else:
                averages = self._average_tunings(step1_solutions, n_ffs, fixed_lower, fixed_upper)

            step2_solutions = yield scheduler.prepare_solve(
                train_problem,
                fixed_lower,
                fixed_upper,
                candidate_mask,
                averages,
                phase=PHASE_STEP2_TRAIN,
            )
            usage2 = self._usage_counts(step2_solutions, n_ffs)
        step2 = self._collect_artifacts(step2_solutions, usage2)

        # ------------------------------------------------------------------
        # Final buffer selection, ranges and grouping
        # ------------------------------------------------------------------
        with _stage(stopwatch, "selection_grouping"):
            keep_threshold = cfg.keep_threshold(step2.n_tuned_samples)
            kept_ffs = [
                i for i in candidate_ffs if usage2[i] >= keep_threshold
            ]
            buffers: List[Buffer] = []
            value_rows: List[np.ndarray] = []
            for i in kept_ffs:
                name = self.topology.ff_names[i]
                values = step2.tuning_values.get(name, np.zeros(0))
                low = min(0.0, float(values.min())) if values.size else 0.0
                high = max(0.0, float(values.max())) if values.size else 0.0
                buffers.append(
                    Buffer(
                        flip_flop=name,
                        lower=low * scale,
                        upper=high * scale,
                        step=step,
                        usage_count=int(usage2[i]),
                    )
                )
                row = np.zeros(n_samples)
                for s, solution in enumerate(step2_solutions):
                    if solution is not None and i in solution.tunings:
                        row[s] = solution.tunings[i]
                value_rows.append(row)

            plan = BufferPlan(buffers=buffers, target_period=target_period)
            if buffers:
                tuning_matrix = np.vstack(value_rows)
                min_pitch = self.design.min_ff_pitch()
                grouping = group_buffers(
                    [b.flip_flop for b in buffers],
                    tuning_matrix,
                    {b.flip_flop: self.design.placement.location(b.flip_flop) for b in buffers},
                    {b.flip_flop: b.usage_count for b in buffers},
                    correlation_threshold=cfg.correlation_threshold,
                    distance_threshold=cfg.distance_factor * min_pitch,
                    max_buffers=cfg.max_buffers,
                )
                dropped = set(grouping.dropped)
                plan.buffers = [b for b in plan.buffers if b.flip_flop not in dropped]
                plan.groups = grouping.groups
                for buffer in plan.buffers:
                    buffer.group = grouping.group_of(buffer.flip_flop)

        # ------------------------------------------------------------------
        # Yield evaluation on fresh samples
        # ------------------------------------------------------------------
        with _stage(stopwatch, "evaluation", traced=seq):
            eval_sampler = MonteCarloSampler(self.design.variation_model, rng=eval_rng)
            eval_batch = eval_sampler.sample(cfg.n_eval_samples)
            eval_samples = self.compiled.sample(eval_batch, sampler=eval_sampler)
            eval_setup = eval_samples.setup_bounds(target_period)
            eval_hold = eval_samples.hold_bounds()
            original_ok = np.all(eval_setup >= 0.0, axis=0) & np.all(eval_hold >= 0.0, axis=0)
            original_yield = float(np.mean(original_ok))
            # The sweep runs on the scheduler's warm worker state: only
            # the plan and the per-chunk bound slices are shipped.
            passed, _ = yield scheduler.prepare_evaluate_plan(
                BatchProblem(eval_setup, eval_hold), plan, step
            )
            improved_yield = float(np.mean(passed)) if passed.size else 1.0

        lower_bounds = {
            self.topology.ff_names[i]: float(fixed_lower[i] * scale) for i in kept_ffs
        }
        return FlowResult(
            plan=plan,
            target_period=target_period,
            mu_period=mu_period,
            sigma_period=sigma_period,
            original_yield=original_yield,
            improved_yield=improved_yield,
            step1=step1,
            step2=step2,
            lower_bounds=lower_bounds,
            runtime_seconds=dict(stopwatch.durations),
            engine_stats=engine_stats.as_dict(),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _usage_counts(
        solutions: List[Optional[SampleSolution]], n_ffs: int
    ) -> np.ndarray:
        """Per-flip-flop count of samples in which the buffer was adjusted."""
        counts = np.zeros(n_ffs, dtype=int)
        for solution in solutions:
            if solution is None:
                continue
            for ff in solution.tunings:
                counts[ff] += 1
        return counts

    def _collect_artifacts(
        self, solutions: List[Optional[SampleSolution]], usage: np.ndarray
    ) -> StepArtifacts:
        """Aggregate per-step artefacts (usage counts, value histograms)."""
        values: Dict[str, List[float]] = {}
        unrescuable: List[int] = []
        n_tuned = 0
        for index, solution in enumerate(solutions):
            if solution is None:
                continue
            if solution.tunings:
                n_tuned += 1
            if not solution.feasible:
                unrescuable.append(index)
            for ff, value in solution.tunings.items():
                values.setdefault(self.topology.ff_names[ff], []).append(float(value))
        return StepArtifacts(
            usage_counts={
                self.topology.ff_names[i]: int(usage[i])
                for i in range(self.topology.n_ffs)
                if usage[i] > 0
            },
            tuning_values={ff: np.array(v) for ff, v in values.items()},
            unrescuable_samples=unrescuable,
            n_tuned_samples=n_tuned,
        )

    @staticmethod
    def _average_tunings(
        solutions: List[Optional[SampleSolution]],
        n_ffs: int,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        """Per-buffer average tuning value, clipped into the fixed windows."""
        sums = np.zeros(n_ffs)
        counts = np.zeros(n_ffs)
        for solution in solutions:
            if solution is None:
                continue
            for ff, value in solution.tunings.items():
                sums[ff] += value
                counts[ff] += 1
        averages = np.divide(sums, np.maximum(counts, 1.0))
        return np.clip(averages, lower, upper)


def insert_buffers(design: CircuitDesign, config: Optional[FlowConfig] = None) -> FlowResult:
    """Convenience wrapper: run :class:`BufferInsertionFlow` on a design."""
    return BufferInsertionFlow(design, config).run()
