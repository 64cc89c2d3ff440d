"""The Table-I benchmark suite.

The paper evaluates eight circuits: four from ISCAS89 (``s9234``,
``s13207``, ``s15850``, ``s38584``) and four from the TAU 2013
variation-aware timing contest (``mem_ctrl``, ``usb_funct``, ``ac97_ctrl``,
``pci_bridge32``).  The original mapped netlists (industrial library) are
not redistributable, so each suite entry is *synthesised* with the same
flip-flop count ``ns`` and gate count ``ng`` as reported in Table I, a
clustered topology and injected static clock skew (the paper also adds
skews "so that they have more critical paths").

Because the reproduction runs on a pure-Python stack, every entry accepts a
``scale`` factor that shrinks ``ns``/``ng`` proportionally; benchmarks use
scaled versions by default and the full sizes with ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.circuit.design import CircuitDesign
from repro.circuit.generators import GeneratorConfig, generate_sequential_circuit
from repro.circuit.library import CellLibrary, default_library
from repro.obs.trace import span as trace_span
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class SuiteCircuitSpec:
    """Size and topology parameters of one Table-I circuit.

    Attributes
    ----------
    name:
        Benchmark name as used in the paper.
    n_flip_flops, n_gates:
        ``ns`` and ``ng`` from Table I.
    source:
        Benchmark family (``"iscas89"`` or ``"tau2013"``).
    max_depth:
        Maximum register-to-register logic depth used by the generator.
    clock_skew_fraction:
        Static clock-skew half-width as a fraction of the nominal critical
        stage delay.
    """

    name: str
    n_flip_flops: int
    n_gates: int
    source: str
    max_depth: int = 12
    clock_skew_fraction: float = 0.15


#: Table I circuit sizes (ns, ng) straight from the paper.
CIRCUIT_SPECS: Dict[str, SuiteCircuitSpec] = {
    spec.name: spec
    for spec in (
        SuiteCircuitSpec("s9234", 211, 5597, "iscas89", max_depth=12),
        SuiteCircuitSpec("s13207", 638, 7951, "iscas89", max_depth=14),
        SuiteCircuitSpec("s15850", 534, 9772, "iscas89", max_depth=16),
        SuiteCircuitSpec("s38584", 1426, 19253, "iscas89", max_depth=14),
        SuiteCircuitSpec("mem_ctrl", 1065, 10327, "tau2013", max_depth=12),
        SuiteCircuitSpec("usb_funct", 1746, 14381, "tau2013", max_depth=12),
        SuiteCircuitSpec("ac97_ctrl", 2199, 9208, "tau2013", max_depth=10),
        SuiteCircuitSpec("pci_bridge32", 3321, 12494, "tau2013", max_depth=10),
    )
}


def list_suite_circuits() -> List[str]:
    """Names of the available suite circuits (paper Table I order)."""
    return list(CIRCUIT_SPECS.keys())


def build_suite_circuit(
    name: str,
    scale: float = 1.0,
    seed: RngLike = 0,
    library: Optional[CellLibrary] = None,
    grid_rows: int = 4,
    grid_cols: int = 4,
) -> CircuitDesign:
    """Build one suite circuit as a :class:`~repro.circuit.design.CircuitDesign`.

    Parameters
    ----------
    name:
        One of :func:`list_suite_circuits`.
    scale:
        Size factor applied to both the flip-flop and gate count
        (``scale=1.0`` reproduces the paper's circuit sizes; smaller values
        produce structurally similar but faster-to-process circuits).
    seed:
        Seed for the netlist generator, placement and clock skews.
    """
    if name not in CIRCUIT_SPECS:
        raise KeyError(
            f"unknown suite circuit {name!r}; available: {list_suite_circuits()}"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    with trace_span("circuit.build", circuit=name, scale=scale):
        spec = CIRCUIT_SPECS[name]
        generator = ensure_rng(seed)
        library = library or default_library()

        n_ffs = max(8, int(round(spec.n_flip_flops * scale)))
        n_gates = max(4 * n_ffs, int(round(spec.n_gates * scale)))
        config = GeneratorConfig(
            n_flip_flops=n_ffs,
            n_gates=n_gates,
            max_depth=spec.max_depth,
            min_depth=max(2, spec.max_depth // 4),
        )
        netlist = generate_sequential_circuit(
            config,
            library=library,
            rng=generator,
            name=name if scale == 1.0 else f"{name}_x{scale:g}",
        )

        design = CircuitDesign.from_netlist(
            netlist,
            library=library,
            clock_skew_magnitude=0.0,
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            rng=generator,
        )

        # Clock skews are added as in the paper ("so that they have more critical
        # paths"), but hold-aware: the skew magnitude is a fraction of the nominal
        # stage delay, projected onto the feasible region of the hold constraints.
        # apply_skews caches the skewed constraint system on the design, so
        # downstream consumers (flow, yield analysis, benchmarks) reuse it.
        from repro.timing.constraints import extract_constraint_graph
        from repro.timing.skew import apply_skews, hold_aware_random_skews

        system = extract_constraint_graph(design)
        nominal_stage_delay = 2.0 * spec.max_depth
        skew_magnitude = spec.clock_skew_fraction * nominal_stage_delay
        skews = hold_aware_random_skews(system, skew_magnitude, rng=generator)
        apply_skews(system, skews)
        return design


def suggested_scale(name: str, target_flip_flops: int = 120) -> float:
    """Scale factor that shrinks circuit ``name`` to roughly ``target_flip_flops``.

    Used by the benchmark harnesses so that every Table-I circuit can be run
    in a reasonable time on the pure-Python stack while preserving the
    relative size ordering of the suite.
    """
    spec = CIRCUIT_SPECS[name]
    if spec.n_flip_flops <= target_flip_flops:
        return 1.0
    return min(1.0, target_flip_flops / spec.n_flip_flops)
