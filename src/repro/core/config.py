"""Configuration of the buffer-insertion flow.

Two dataclasses hold every tunable of the method:

* :class:`BufferSpec` — what a post-silicon tuning buffer can do (maximum
  range as a fraction of the clock period, number of discrete steps), the
  paper's experimental setting being "1/8 of the original clock period"
  with "20 discrete steps";
* :class:`FlowConfig` — how the sampling-based flow is run (sample counts,
  solver backend, pruning / keeping thresholds, grouping thresholds, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.sample_solver import LP_BACKEND_CHOICES
from repro.engine import EXECUTOR_CHOICES
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class BufferSpec:
    """Specification of the available post-silicon clock tuning buffer.

    Attributes
    ----------
    max_range_fraction:
        Maximum configurable range ``tau`` as a fraction of the target
        clock period (paper: 1/8).
    n_steps:
        Number of discrete tuning steps across the maximum range
        (paper: 20, after the de-skew buffer of reference [4]).
    discrete:
        Whether tuning values are restricted to the discrete grid.  When
        ``False`` the buffer is treated as continuously tunable.
    """

    max_range_fraction: float = 1.0 / 8.0
    n_steps: int = 20
    discrete: bool = True

    def __post_init__(self) -> None:
        check_fraction(self.max_range_fraction, "max_range_fraction")
        check_positive(self.n_steps, "n_steps")

    def max_range(self, period: float) -> float:
        """Maximum tuning range ``tau`` in time units for a clock period."""
        check_positive(period, "period")
        return self.max_range_fraction * period

    def step_size(self, period: float) -> float:
        """Size of one discrete tuning step in time units."""
        return self.max_range(period) / self.n_steps


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of :class:`~repro.core.flow.BufferInsertionFlow`.

    Attributes
    ----------
    n_samples:
        Number of Monte-Carlo training samples (the paper uses 10 000; the
        pure-Python default is smaller, results are shape-stable above
        roughly one thousand).
    n_eval_samples:
        Number of *fresh* samples used for the final yield evaluation.
    seed:
        Master seed; training samples, evaluation samples and all solver
        tie-breaking derive from it.
    target_sigma:
        Target clock period expressed as ``mu_T + target_sigma * sigma_T``
        (the paper's three settings are 0, 1 and 2).  Ignored when
        ``target_period`` is given.
    target_period:
        Absolute target clock period (overrides ``target_sigma``).
    buffer_spec:
        The available tuning-buffer hardware.
    solver:
        Per-sample solver backend: ``"graph"`` (specialised, fast, default)
        or ``"milp"`` (faithful big-M integer program, exact, slow).
    pool_hops:
        Neighbourhood radius (in sequential-graph hops) around violated
        edges from which the per-sample solver may recruit buffers.
    max_pool_expansions:
        How many times the solver may widen the pool when a sample cannot
        be repaired inside the initial neighbourhood.
    prune_min_count:
        Sec. III-A2: buffers adjusted in at most this many samples are
        pruning candidates.
    prune_critical_fraction:
        Sec. III-A2: a pruning candidate survives if it neighbours a buffer
        used in at least this fraction of samples (paper: 5 / 10 000).
    keep_usage_fraction:
        Final selection: a buffer is kept in the circuit when it is tuned
        in at least this fraction of the *tuned* training samples (samples
        that needed any adjustment at all), with an absolute floor of two
        samples.  Expressing the threshold relative to the tuned samples
        keeps the rule meaningful across the paper's three target periods,
        whose failing-sample counts differ by more than an order of
        magnitude.
    max_buffers:
        Optional designer cap on the number of physical buffers after
        grouping (paper Sec. III-C, last paragraph).
    skip_step2_threshold:
        Sec. III-B1: the re-simulation with fixed lower bounds is skipped
        when fewer than this fraction of samples have tunings outside the
        chosen range windows (paper: 0.1 %).
    correlation_threshold / distance_factor:
        Sec. III-C grouping thresholds (paper: 0.8 and 10x the minimum
        flip-flop pitch).
    concentrate:
        Whether to run the value-concentration objectives (disabling them
        is an ablation knob; the paper always concentrates).
    lp_backend:
        LP backend (``"auto"``/``"scipy"``/``"simplex"``) of the
        ``"milp"`` solver's relaxations; the default graph solver
        concentrates without an LP, so it ignores this.  Any other value
        is rejected here.
    executor:
        Execution backend of the sample-solving engine:
        ``"serial"`` (default) or ``"processes"``
        (see :mod:`repro.engine`).  The flow result is bit-identical
        across executors for a fixed seed.
    jobs:
        Worker count for the parallel executors (``None``: CPU count).
    chunk_size:
        Samples per executor round trip (``None``: balanced heuristic).
    cache_size:
        Optional LRU bound on the engine's per-sample
        :class:`~repro.engine.ResultCache` (``None``: unbounded).  The
        cache only ever holds one training batch's solutions, but large
        sample counts on large designs can make even that significant;
        the bound caps the memory at the cost of extra re-solves.
    """

    n_samples: int = 1000
    n_eval_samples: int = 2000
    seed: int = 0
    target_sigma: float = 0.0
    target_period: Optional[float] = None
    buffer_spec: BufferSpec = field(default_factory=BufferSpec)
    solver: str = "graph"
    pool_hops: int = 1
    max_pool_expansions: int = 3
    prune_min_count: int = 1
    prune_critical_fraction: float = 5.0 / 10000.0
    keep_usage_fraction: float = 0.02
    max_buffers: Optional[int] = None
    skip_step2_threshold: float = 0.001
    correlation_threshold: float = 0.8
    distance_factor: float = 10.0
    concentrate: bool = True
    lp_backend: str = "auto"
    executor: str = "serial"
    jobs: Optional[int] = None
    chunk_size: Optional[int] = None
    cache_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.n_samples, "n_samples")
        check_positive(self.n_eval_samples, "n_eval_samples")
        check_non_negative(self.target_sigma, "target_sigma")
        if self.target_period is not None:
            check_positive(self.target_period, "target_period")
        if self.solver not in ("graph", "milp"):
            raise ValueError(f"solver must be 'graph' or 'milp', got {self.solver!r}")
        check_non_negative(self.pool_hops, "pool_hops")
        check_non_negative(self.max_pool_expansions, "max_pool_expansions")
        check_non_negative(self.prune_min_count, "prune_min_count")
        check_probability(self.prune_critical_fraction, "prune_critical_fraction")
        check_probability(self.keep_usage_fraction, "keep_usage_fraction")
        if self.max_buffers is not None:
            check_positive(self.max_buffers, "max_buffers")
        check_probability(self.skip_step2_threshold, "skip_step2_threshold")
        check_probability(self.correlation_threshold, "correlation_threshold")
        check_non_negative(self.distance_factor, "distance_factor")
        if self.lp_backend not in LP_BACKEND_CHOICES:
            raise ValueError(
                f"lp_backend must be one of {LP_BACKEND_CHOICES}, got {self.lp_backend!r}"
            )
        if self.executor not in EXECUTOR_CHOICES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_CHOICES}, got {self.executor!r}"
            )
        if self.jobs is not None:
            check_positive(self.jobs, "jobs")
        if self.chunk_size is not None:
            check_positive(self.chunk_size, "chunk_size")
        if self.cache_size is not None:
            check_positive(self.cache_size, "cache_size")

    @property
    def prune_critical_count(self) -> int:
        """Absolute usage count above which a buffer counts as critical for
        the pruning rule, scaled to ``n_samples`` (paper: 5 at 10 000)."""
        return max(1, int(round(self.prune_critical_fraction * self.n_samples)))

    def keep_threshold(self, n_tuned_samples: int) -> int:
        """Usage count a buffer needs to be kept, given how many training
        samples required tuning at all."""
        return max(2, int(round(self.keep_usage_fraction * max(n_tuned_samples, 0))))
