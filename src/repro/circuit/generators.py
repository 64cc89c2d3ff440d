"""Synthetic sequential-circuit generators.

The paper's benchmark circuits (ISCAS89 + TAU 2013 contest) are mapped to
an industrial library that is not redistributable, so the reproduction
generates *structurally equivalent* circuits: sequential netlists with a
specified number of flip-flops and combinational gates, organised as
register-to-register **clouds** (a cloud = one combinational block between
a small group of launching flip-flops and a small group of capturing
flip-flops).  This yields

* a sparse, local flip-flop-to-flip-flop adjacency (each capture flip-flop
  sees at most the handful of launch flip-flops of its cloud), as in real
  designs, and
* a wide spread of cloud logic depths, so some register-to-register stages
  are far more timing-critical than others — which is precisely the
  imbalance post-silicon clock tuning exploits.

The generator is deterministic given its seed and is the workhorse behind
:mod:`repro.circuit.suite`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuit.library import CellLibrary, default_library
from repro.circuit.netlist import Netlist
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic circuit generator.

    Attributes
    ----------
    n_flip_flops:
        Number of flip-flops (``ns``).
    n_gates:
        Number of combinational gates (``ng``).
    n_primary_inputs / n_primary_outputs:
        Port counts; defaults are derived from the flip-flop count.
    max_depth / min_depth:
        Range of logic depths (in gate levels) a register-to-register cloud
        may have.  Each cloud draws its own depth, which creates the delay
        imbalance between neighbouring stages.
    deep_cloud_fraction:
        Fraction of clouds that are *deep* (close to ``max_depth``).  Real
        designs have a handful of dominant critical stages; keeping this
        fraction small concentrates timing criticality on a few
        register-to-register stages, which is the situation post-silicon
        tuning (and the paper's small buffer counts) relies on.
    shallow_depth_fraction:
        Depth of the non-deep clouds as a fraction of ``max_depth``.
    launch_group_size:
        Number of launching flip-flops feeding one cloud.
    capture_group_size:
        Number of capturing flip-flops fed by one cloud.
    extra_launch_prob:
        Probability that a cloud additionally launches from a flip-flop of
        a neighbouring group (creates cross-stage coupling).
    """

    n_flip_flops: int
    n_gates: int
    n_primary_inputs: Optional[int] = None
    n_primary_outputs: Optional[int] = None
    max_depth: int = 12
    min_depth: int = 3
    deep_cloud_fraction: float = 0.12
    shallow_depth_fraction: float = 0.6
    launch_group_size: int = 6
    capture_group_size: int = 6
    extra_launch_prob: float = 0.3

    def __post_init__(self) -> None:
        check_positive(self.n_flip_flops, "n_flip_flops")
        check_positive(self.n_gates, "n_gates")
        if self.min_depth < 1 or self.max_depth < self.min_depth:
            raise ValueError("require 1 <= min_depth <= max_depth")
        check_positive(self.launch_group_size, "launch_group_size")
        check_positive(self.capture_group_size, "capture_group_size")
        if not 0.0 <= self.extra_launch_prob <= 1.0:
            raise ValueError("extra_launch_prob must lie in [0, 1]")
        if not 0.0 < self.deep_cloud_fraction <= 1.0:
            raise ValueError("deep_cloud_fraction must lie in (0, 1]")
        if not 0.0 < self.shallow_depth_fraction <= 1.0:
            raise ValueError("shallow_depth_fraction must lie in (0, 1]")

    @property
    def resolved_primary_inputs(self) -> int:
        """Primary-input count with the default heuristic applied."""
        if self.n_primary_inputs is not None:
            return self.n_primary_inputs
        return max(4, self.n_flip_flops // 12)

    @property
    def resolved_primary_outputs(self) -> int:
        """Primary-output count with the default heuristic applied."""
        if self.n_primary_outputs is not None:
            return self.n_primary_outputs
        return max(4, self.n_flip_flops // 16)


def generate_sequential_circuit(
    config: GeneratorConfig,
    library: Optional[CellLibrary] = None,
    rng: RngLike = None,
    name: str = "generated",
) -> Netlist:
    """Generate a random sequential netlist matching ``config``.

    The construction is level-ordered inside each cloud (gates only receive
    fan-ins from strictly earlier levels, launching flip-flops or primary
    inputs), so the combinational logic is acyclic by construction.

    Every flip-flop's D pin is driven from the cloud of its capture group,
    so it captures from at most ``launch_group_size + 1`` flip-flops (the
    cloud's launches).  It may capture from none: when the driving gate's
    fan-in cone holds only the cloud's primary inputs, the flip-flop has
    no incoming sequential edge (e.g. ``ff_1`` of a 2-flip-flop, 10-gate
    circuit of depth 2 at seed 0).
    """
    library = library or default_library()
    generator = ensure_rng(rng)
    netlist = Netlist(name=name)

    n_ffs = config.n_flip_flops
    n_gates = config.n_gates
    n_pis = config.resolved_primary_inputs
    n_pos = config.resolved_primary_outputs

    pis = [f"pi_{i}" for i in range(n_pis)]
    ffs = [f"ff_{i}" for i in range(n_ffs)]

    for pi in pis:
        netlist.add_primary_input(pi)
    for ff in ffs:
        netlist.add_flip_flop(ff, cell="DFF")

    # --- Partition flip-flops into capture groups, one cloud per group ---
    group_size = max(1, min(config.capture_group_size, n_ffs))
    capture_groups: List[List[str]] = [
        ffs[i:i + group_size] for i in range(0, n_ffs, group_size)
    ]
    n_clouds = len(capture_groups)
    gates_per_cloud = _split_evenly(n_gates, n_clouds)

    comb_cells = [c for c in library.combinational_cells() if c.n_inputs >= 1]
    cell_weights = np.array([1.0 / (1.0 + 0.6 * c.n_inputs) for c in comb_cells])
    cell_weights = cell_weights / cell_weights.sum()
    # The cumulative weights Generator.choice(p=...) searches on every
    # draw, computed once: bisect_right on one uniform draw picks the
    # same cell from the same stream.
    cumulative = cell_weights.cumsum()
    cumulative /= cumulative[-1]
    cell_cdf: List[float] = cumulative.tolist()

    gate_counter = 0
    deep_gate_pool: Dict[int, List[str]] = {}
    for cloud_idx, captures in enumerate(capture_groups):
        # Launch flip-flops of this cloud: the *previous* capture group (ring
        # order) plus, with some probability, a few flip-flops from another
        # group to create cross-stage coupling.
        launch_group = capture_groups[(cloud_idx - 1) % n_clouds]
        launches = list(launch_group[: config.launch_group_size])
        if n_clouds > 1 and generator.random() < config.extra_launch_prob:
            other = capture_groups[int(generator.integers(0, n_clouds))]
            extra = [ff for ff in other if ff not in launches]
            if extra:
                launches.append(_pick(generator, extra))
        cloud_pis = [pis[int(i)] for i in generator.choice(n_pis, size=min(2, n_pis), replace=False)]

        # Depth distribution: most clouds are shallow-to-medium, a small
        # fraction is deep (the dominant critical stages).
        shallow_cap = max(config.min_depth, int(round(config.shallow_depth_fraction * config.max_depth)))
        if generator.random() < config.deep_cloud_fraction:
            depth = int(generator.integers(max(config.min_depth, config.max_depth - 2), config.max_depth + 1))
        else:
            depth = int(generator.integers(config.min_depth, shallow_cap + 1))
        n_cloud_gates = gates_per_cloud[cloud_idx]
        deep_gates, all_sources = _build_cloud(
            netlist,
            generator,
            comb_cells,
            cell_cdf,
            sources=launches + cloud_pis,
            depth=depth,
            n_gates=n_cloud_gates,
            name_offset=gate_counter,
        )
        gate_counter += n_cloud_gates
        deep_gate_pool[cloud_idx] = deep_gates if deep_gates else all_sources

        # Connect capture flip-flop D inputs to the cloud's deepest gates.
        pool = deep_gate_pool[cloud_idx]
        for ff in captures:
            netlist.set_flip_flop_input(ff, _pick(generator, pool))

    # --- Primary outputs observe deep gates of random clouds ---------------
    for i in range(n_pos):
        cloud_idx = int(generator.integers(0, n_clouds))
        pool = deep_gate_pool[cloud_idx]
        netlist.add_primary_output(f"po_{i}", driver=_pick(generator, pool))

    netlist.validate(library=library)
    return netlist


def _build_cloud(
    netlist: Netlist,
    generator: np.random.Generator,
    comb_cells: Sequence,
    cell_cdf: List[float],
    sources: List[str],
    depth: int,
    n_gates: int,
    name_offset: int,
) -> (List[str], List[str]):
    """Create one combinational cloud and return (deep gates, all sources).

    Gates are assigned to levels ``1 .. depth``; a gate at level ``l`` picks
    fan-ins from levels ``< l`` of the same cloud, the launching flip-flops
    or the cloud's primary inputs, with a strong preference for level
    ``l - 1`` so that chains of the full depth exist.
    """
    if n_gates <= 0:
        return [], list(sources)
    levels: Dict[int, List[str]] = {0: list(sources)}
    # Distribute gates over levels: every level gets at least one gate when
    # possible, the remainder is spread with a mild bias toward early levels.
    depth = min(depth, n_gates)
    per_level = _split_evenly(n_gates, depth)

    gate_idx = name_offset
    for level in range(1, depth + 1):
        levels[level] = []
        prev_level = levels[level - 1]
        earlier: List[str] = [g for lvl in range(level - 1) for g in levels[lvl]]
        pool = earlier + prev_level
        for _ in range(per_level[level - 1]):
            cell = comb_cells[bisect_right(cell_cdf, generator.random())]
            gname = f"g_{gate_idx}"
            gate_idx += 1
            fanins = _pick_fanins(generator, cell.n_inputs, prev_level, earlier, pool)
            netlist.add_gate(gname, cell=cell.name, fanins=fanins)
            levels[level].append(gname)

    deep = levels[depth] if levels[depth] else levels[max(levels)]
    return deep, list(sources)


def _pick_fanins(
    generator: np.random.Generator,
    n_inputs: int,
    prev_level: List[str],
    earlier: List[str],
    pool: List[str],
) -> List[str]:
    """Pick fan-ins: the first always comes from the previous level (to keep
    the depth chain alive), the rest from ``pool``, any earlier level
    (``earlier + prev_level``, built once per level)."""
    fanins: List[str] = []
    if prev_level:
        fanins.append(_pick(generator, prev_level))
    n_needed = max(1, n_inputs) - len(fanins)
    for _ in range(n_needed):
        if not pool:
            break
        candidate = _pick(generator, pool)
        if candidate not in fanins or len(pool) <= len(fanins):
            fanins.append(candidate)
    if not fanins:
        fanins = [_pick(generator, prev_level or earlier)]
    return fanins


def _pick(generator: np.random.Generator, names: List[str]) -> str:
    """One uniform pick from ``names``: the draw of ``generator.choice(names)``
    without converting the list to an array."""
    return names[int(generator.integers(0, len(names)))]


def _split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integers that differ by at most one."""
    if parts <= 0:
        return []
    base = total // parts
    remainder = total % parts
    return [base + (1 if i < remainder else 0) for i in range(parts)]
