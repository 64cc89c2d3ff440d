"""Cell placement.

Buffer grouping (paper Sec. III-C, Fig. 6) needs physical flip-flop
locations: two buffers may only share one physical tuning buffer when the
Manhattan distance between their flip-flops is below a threshold expressed
as a multiple of the minimum flip-flop pitch.

The reproduction uses a simple but structured placement: instances are laid
out on a uniform grid of rows, with connected instances kept close together
by placing them in breadth-first order from the primary inputs and
flip-flops.  This yields the spatial locality the grouping step (and the
spatially-correlated variation model) relies on, without needing a full
placer.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.circuit.netlist import Netlist
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class Placement:
    """Physical locations of netlist instances.

    Attributes
    ----------
    locations:
        Map from instance name to ``(x, y)`` in placement units.
    die_width, die_height:
        Extent of the die.
    row_pitch:
        Vertical distance between placement rows (also used as the minimum
        flip-flop pitch for the grouping distance threshold).
    """

    locations: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    die_width: float = 100.0
    die_height: float = 100.0
    row_pitch: float = 1.0

    def location(self, name: str) -> Tuple[float, float]:
        """Location of an instance; raises ``KeyError`` when unplaced."""
        try:
            return self.locations[name]
        except KeyError:
            raise KeyError(f"instance {name!r} has no placement") from None

    def manhattan_distance(self, a: str, b: str) -> float:
        """Manhattan distance between two placed instances."""
        xa, ya = self.location(a)
        xb, yb = self.location(b)
        return abs(xa - xb) + abs(ya - yb)

    def min_flip_flop_pitch(self, flip_flops: Iterable[str]) -> float:
        """Smallest positive pairwise Manhattan distance among the given flip-flops.

        Unplaced names are skipped.  Falls back to :attr:`row_pitch` when
        no pair of placed flip-flops has a positive distance (fewer than
        two of them, or all at one point).
        """
        ffs = [ff for ff in flip_flops if ff in self.locations]
        best = math.inf
        # A full pair scan, quadratic in the flip-flops compared.  From
        # 4000 flip-flops on only every step-th one is compared, so at
        # most 3999 ever are.  CircuitDesign.min_ff_pitch() caches the
        # result, so a design pays the scan once.
        limit = 2000
        step = max(1, len(ffs) // limit)
        sampled = ffs[::step]
        for i, a in enumerate(sampled):
            for b in sampled[i + 1:]:
                d = self.manhattan_distance(a, b)
                if 0.0 < d < best:
                    best = d
        if not math.isfinite(best):
            return self.row_pitch
        return best

    def __len__(self) -> int:
        return len(self.locations)


def grid_placement(
    netlist: Netlist,
    utilization: float = 0.7,
    rng: RngLike = None,
    jitter: float = 0.25,
) -> Placement:
    """Place all instances of ``netlist`` on a uniform grid.

    Instances are ordered by a breadth-first traversal of the combinational
    graph starting from primary inputs and flip-flop outputs, so that
    logically connected cells end up physically close.  A small random
    jitter avoids degenerate zero distances.

    Parameters
    ----------
    utilization:
        Fraction of grid sites occupied (lower values spread cells out).
    jitter:
        Uniform jitter (in fractions of a site) added to each coordinate.
    """
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    generator = ensure_rng(rng)

    order = _bfs_order(netlist)
    n_cells = len(order)
    n_sites = max(1, int(math.ceil(n_cells / utilization)))
    n_cols = max(1, int(math.ceil(math.sqrt(n_sites))))
    n_rows = max(1, int(math.ceil(n_sites / n_cols)))
    pitch = 1.0
    die_width = n_cols * pitch
    die_height = n_rows * pitch

    # Spread occupied sites uniformly over the available sites.
    site_indices = _spread_indices(n_cells, n_rows * n_cols)
    # One (dx, dy) pair per cell, in placement order: the same stream as
    # one size-2 draw per cell.
    offsets = (generator.uniform(-jitter, jitter, size=(n_cells, 2)) * pitch).tolist()
    locations: Dict[str, Tuple[float, float]] = {}
    for name, site, (dx, dy) in zip(order, site_indices, offsets, strict=True):
        row, col = divmod(site, n_cols)
        x = min(max((col + 0.5) * pitch + dx, 0.0), die_width)
        y = min(max((row + 0.5) * pitch + dy, 0.0), die_height)
        locations[name] = (float(x), float(y))

    return Placement(
        locations=locations,
        die_width=die_width,
        die_height=die_height,
        row_pitch=pitch,
    )


def _bfs_order(netlist: Netlist) -> List[str]:
    """Breadth-first instance order from the circuit's timing start points."""
    graph = netlist.combinational_graph()
    names = graph.names
    starts = [graph.index[name] for name in netlist.primary_inputs + netlist.flip_flops]
    visited: Dict[str, None] = dict.fromkeys(names[node] for node in starts)
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        for succ in graph.fanout[node]:
            name = names[succ]
            # A flip-flop's D input: the flip-flop itself is the key, and
            # the search does not pass through it.
            key = name[1] if isinstance(name, tuple) else name
            if key not in visited:
                visited[key] = None
                if not isinstance(name, tuple):
                    queue.append(succ)
    # Any instance not reached (e.g. dangling outputs) is appended at the end.
    for name in netlist.instances:
        visited.setdefault(name, None)
    return list(visited.keys())


def _spread_indices(n_items: int, n_sites: int) -> List[int]:
    """Evenly spread ``n_items`` indices over ``range(n_sites)``."""
    if n_items <= 0:
        return []
    if n_items >= n_sites:
        return [i % n_sites for i in range(n_items)]
    stride = n_sites / n_items
    return [int(i * stride) for i in range(n_items)]
