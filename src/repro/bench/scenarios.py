"""Benchmark scenario matrix.

A :class:`Scenario` pins down everything that influences the runtime of
one flow run: the circuit and its scale, the target-period sigma, the
per-sample solver backend, the engine executor and worker count, the
sample counts and the seed.  Scenarios are hashable value objects with a
stable :attr:`~Scenario.scenario_id`, which is the join key used by the
artifact comparison and the CI regression gate.

Suites are named, **deterministically ordered** collections of
scenarios: :func:`get_suite` always returns the same scenarios in the
same order, independent of how the suite was declared (the order is the
scenarios' :meth:`~Scenario.sort_key`).  :func:`scenario_matrix` builds
the cross product circuit x scale x sigma x solver x executor that the
larger suites are declared with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import FlowConfig

#: Artifact/scenario fields that identify one scenario (serialisation order).
#: ``kind``/``dispatch`` arrived with artifact schema 2; their defaults
#: reproduce the schema-1 semantics so old artifacts keep loading.
PARAM_FIELDS = (
    "circuit",
    "scale",
    "sigma",
    "solver",
    "executor",
    "jobs",
    "n_samples",
    "n_eval_samples",
    "seed",
    "kind",
    "dispatch",
)

#: What one scenario times: a single flow run, or a whole multi-cell
#: campaign exercising the runner's dispatch strategy.
KIND_CHOICES = ("flow", "campaign")

#: Campaign dispatch strategies (mirrors ``repro.campaign.DISPATCH_CHOICES``
#: without importing the campaign subsystem at scenario-definition time).
DISPATCH_CHOICES = ("batched", "sequential")


@dataclass(frozen=True)
class Scenario:
    """One cell of the benchmark matrix (everything that affects runtime).

    ``kind`` selects what is timed: ``"flow"`` (one
    :class:`~repro.core.flow.BufferInsertionFlow` run — the historical
    meaning) or ``"campaign"`` (a small multi-cell
    :class:`~repro.campaign.runner.CampaignRunner` matrix exercising the
    hot dispatch path).  ``dispatch`` only matters for campaign
    scenarios; flow scenarios ignore it and keep their schema-1 ids.
    """

    circuit: str
    scale: float
    sigma: float = 0.0
    solver: str = "graph"
    executor: str = "serial"
    jobs: Optional[int] = None
    n_samples: int = 60
    n_eval_samples: int = 100
    seed: int = 3
    kind: str = "flow"
    dispatch: str = "batched"

    def __post_init__(self) -> None:
        if self.kind not in KIND_CHOICES:
            raise ValueError(f"kind must be one of {KIND_CHOICES}, got {self.kind!r}")
        if self.dispatch not in DISPATCH_CHOICES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_CHOICES}, got {self.dispatch!r}"
            )

    @property
    def scenario_id(self) -> str:
        """Stable identifier; the join key of artifact comparisons.

        Flow scenarios keep their schema-1 id verbatim, so artifacts
        written before ``kind`` existed still join against new baselines;
        campaign scenarios append a ``/campaign-<dispatch>`` segment.
        """
        jobs = "auto" if self.jobs is None else str(self.jobs)
        base = (
            f"{self.circuit}@{self.scale:g}"
            f"/sigma{self.sigma:g}"
            f"/{self.solver}"
            f"/{self.executor}x{jobs}"
            f"/n{self.n_samples}e{self.n_eval_samples}s{self.seed}"
        )
        if self.kind == "campaign":
            base += f"/campaign-{self.dispatch}"
        return base

    def sort_key(self) -> Tuple:
        """Deterministic ordering key (suite order is always this)."""
        return (
            self.circuit,
            self.scale,
            self.sigma,
            self.solver,
            self.executor,
            -1 if self.jobs is None else self.jobs,
            self.n_samples,
            self.n_eval_samples,
            self.seed,
            self.kind,
            self.dispatch,
        )

    def flow_config(self) -> FlowConfig:
        """The :class:`~repro.core.config.FlowConfig` this scenario runs."""
        return FlowConfig(
            n_samples=self.n_samples,
            n_eval_samples=self.n_eval_samples,
            seed=self.seed,
            target_sigma=self.sigma,
            solver=self.solver,
            executor=self.executor,
            jobs=self.jobs,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable parameter mapping (see :data:`PARAM_FIELDS`)."""
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @classmethod
    def from_dict(cls, params: Dict[str, object]) -> "Scenario":
        """Inverse of :meth:`as_dict` (unknown keys are rejected)."""
        unknown = set(params) - set(PARAM_FIELDS)
        if unknown:
            raise ValueError(f"unknown scenario parameters: {sorted(unknown)}")
        return cls(**params)  # type: ignore[arg-type]


def scenario_matrix(
    circuits: Sequence[Tuple[str, float]],
    sigmas: Sequence[float] = (0.0,),
    solvers: Sequence[str] = ("graph",),
    executors: Sequence[Tuple[str, Optional[int]]] = (("serial", None),),
    n_samples: int = 60,
    n_eval_samples: int = 100,
    seed: int = 3,
) -> List[Scenario]:
    """Cross product circuit x sigma x solver x executor, sorted.

    ``circuits`` are ``(name, scale)`` pairs and ``executors`` are
    ``(executor, jobs)`` pairs.
    """
    scenarios = [
        Scenario(
            circuit=circuit,
            scale=scale,
            sigma=sigma,
            solver=solver,
            executor=executor,
            jobs=jobs,
            n_samples=n_samples,
            n_eval_samples=n_eval_samples,
            seed=seed,
        )
        for (circuit, scale), sigma, solver, (executor, jobs) in product(
            circuits, sigmas, solvers, executors
        )
    ]
    return sort_scenarios(scenarios)


def sort_scenarios(scenarios: Iterable[Scenario]) -> List[Scenario]:
    """Deterministic suite order (and duplicate rejection)."""
    ordered = sorted(scenarios, key=Scenario.sort_key)
    seen = set()
    for scenario in ordered:
        if scenario.scenario_id in seen:
            raise ValueError(f"duplicate scenario {scenario.scenario_id!r}")
        seen.add(scenario.scenario_id)
    return ordered


# ----------------------------------------------------------------------
# Named suites
# ----------------------------------------------------------------------
def _quick_suite() -> List[Scenario]:
    # Small enough for a CI smoke run (a few seconds end to end) while
    # still covering both target tightnesses and a parallel executor.
    return sort_scenarios(
        scenario_matrix(
            circuits=[("s9234", 0.05)],
            sigmas=(0.0, 1.0),
            executors=(("serial", None),),
            n_samples=60,
            n_eval_samples=100,
        )
        + [
            Scenario(
                circuit="s9234",
                scale=0.05,
                sigma=1.0,
                executor="processes",
                jobs=2,
                n_samples=60,
                n_eval_samples=100,
            )
        ]
        # The campaign hot path, both dispatch strategies over the same
        # multi-cell matrix: the pair measures the batched-gang speedup
        # and its identical plan fingerprints guard bit-identity.
        + [
            Scenario(
                circuit="s9234",
                scale=0.05,
                sigma=1.0,
                executor="processes",
                jobs=2,
                n_samples=40,
                n_eval_samples=80,
                kind="campaign",
                dispatch=dispatch,
            )
            for dispatch in DISPATCH_CHOICES
        ]
    )


def _default_suite() -> List[Scenario]:
    return sort_scenarios(
        scenario_matrix(
            circuits=[("s9234", 0.1), ("s13207", 0.05)],
            sigmas=(0.0, 1.0, 2.0),
            executors=(("serial", None), ("processes", None)),
            n_samples=150,
            n_eval_samples=300,
        )
        # One larger-scale workload exercising the array-native kernel:
        # hundreds of sequential edges evaluated as single matmuls, with
        # level-batched Clark sweeps paying off in the (cached) compile.
        + [
            Scenario(
                circuit="s9234",
                scale=0.4,
                sigma=1.0,
                executor="serial",
                n_samples=150,
                n_eval_samples=300,
            )
        ]
    )


def _full_suite() -> List[Scenario]:
    return sort_scenarios(
        scenario_matrix(
            circuits=[("s9234", 0.18), ("s13207", 0.1), ("usb_funct", 0.05)],
            sigmas=(0.0, 1.0, 2.0),
            solvers=("graph",),
            executors=(("serial", None), ("processes", None)),
            n_samples=300,
            n_eval_samples=600,
        )
        # The faithful big-M MILP backend is orders of magnitude slower;
        # one tight-target scenario tracks it without dominating the suite.
        + [
            Scenario(
                circuit="s9234",
                scale=0.05,
                sigma=1.0,
                solver="milp",
                executor="serial",
                n_samples=40,
                n_eval_samples=80,
            )
        ]
    )


_SUITE_BUILDERS = {
    "quick": _quick_suite,
    "default": _default_suite,
    "full": _full_suite,
}

SUITE_NAMES = tuple(sorted(_SUITE_BUILDERS))


def get_suite(name: str) -> List[Scenario]:
    """The scenarios of a named suite, in deterministic order."""
    try:
        builder = _SUITE_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None
    return builder()


def override_execution(
    scenarios: Iterable[Scenario],
    executor: Optional[str] = None,
    jobs: Optional[int] = None,
) -> List[Scenario]:
    """Re-pin the executor/jobs of every scenario (CLI overrides).

    Overriding changes the scenario ids — artifacts produced with an
    override only compare against baselines produced with the same one.
    Scenarios that collapse onto the same id under the override (e.g. a
    serial and a processes variant of one workload forced onto one
    executor) are deduplicated.
    """
    updates = {}
    if executor is not None:
        updates["executor"] = executor
    if jobs is not None:
        updates["jobs"] = jobs
    if not updates:
        return list(scenarios)
    unique = {}
    for scenario in scenarios:
        pinned = replace(scenario, **updates)
        unique.setdefault(pinned.scenario_id, pinned)
    return sort_scenarios(unique.values())
