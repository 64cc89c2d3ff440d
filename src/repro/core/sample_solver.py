"""Per-sample buffer minimisation.

For one Monte-Carlo sample the paper solves two optimisation problems
(Sec. III-A1 / III-A3, repeated with fixed bounds in Sec. III-B):

1. minimise the number of adjusted buffers ``csum`` subject to the setup /
   hold difference constraints and the range windows (problem (8)–(13));
2. with ``csum <= n_k`` as an extra constraint, minimise the total distance
   of the tuning values to a target (0 in step 1, the per-buffer average in
   step 2; problems (14)–(17) and (18)–(21)).

Two interchangeable backends implement this:

* ``"graph"`` (default) — exploits the difference-constraint structure:
  violated constraints are grouped into connected *regions*, a greedy
  vertex-cover seed is expanded until the region becomes feasible
  (Bellman–Ford feasibility via :mod:`repro.core.difference`), redundant
  buffers are pruned back out, and the tuning values are finally
  concentrated around the target.  Concentration is exact: the support
  splits into the components its rows couple, and each gets the
  canonical optimum, in closed form for one or two buffers and as a
  min-cost flow for more (no LP is solved).  All arithmetic is done in
  discrete step units so the returned tuning values respect the
  buffer's step grid exactly.
* ``"milp"`` — the faithful big-M integer program of the paper, built with
  :mod:`repro.milp` and warm-started from the graph solution.  Exact but
  markedly slower; used for validation and small designs.  It is the
  only user of an LP engine (``lp_backend``).

Both backends solve the *same* per-sample problem and are cross-checked in
the test suite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.difference import (
    DifferenceRows,
    check_assignment,
    edge_rows,
    solve_difference_system,
    tightest_rows,
)
from repro.obs.metrics import get_registry

_TOL = 1e-9

#: LP backends of :func:`repro.milp.backends.solve_lp` (``"auto"`` picks),
#: used by the ``"milp"`` backend only.
LP_BACKEND_CHOICES = ("auto", "scipy", "simplex")

#: Scope constraint rows (positions in the sorted support, the reference
#: last) and Bellman–Ford witness of a support that repairs its region.
ScopeWitness = Tuple[DifferenceRows, Dict[int, float]]


# ----------------------------------------------------------------------
# Static topology shared by every sample
# ----------------------------------------------------------------------
@dataclass
class ConstraintTopology:
    """Index-level view of the sequential constraint graph.

    Attributes
    ----------
    ff_names:
        Flip-flop names; everything else uses their indices.
    edge_launch / edge_capture:
        Flip-flop index of the launch / capture end of every edge.
    edges_of_ff:
        For every flip-flop, the indices of its incident edges.

    The neighbour set of every flip-flop is built once, with the topology.
    """

    ff_names: List[str]
    edge_launch: np.ndarray
    edge_capture: np.ndarray
    edges_of_ff: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.edge_launch = np.asarray(self.edge_launch, dtype=int)
        self.edge_capture = np.asarray(self.edge_capture, dtype=int)
        launch = self.edge_launch.tolist()
        capture = self.edge_capture.tolist()
        if not self.edges_of_ff:
            edges_of_ff: List[List[int]] = [[] for _ in self.ff_names]
            for k, (i, j) in enumerate(zip(launch, capture, strict=True)):
                edges_of_ff[i].append(k)
                edges_of_ff[j].append(k)
            self.edges_of_ff = edges_of_ff
        self._neighbors: List[Set[int]] = []
        for ff, edges in enumerate(self.edges_of_ff):
            neighbors: Set[int] = set()
            for k in edges:
                neighbors.add(launch[k])
                neighbors.add(capture[k])
            neighbors.discard(ff)
            self._neighbors.append(neighbors)

    @property
    def n_ffs(self) -> int:
        """Number of flip-flops."""
        return len(self.ff_names)

    @property
    def n_edges(self) -> int:
        """Number of sequential edges."""
        return int(self.edge_launch.shape[0])

    def neighbors(self, ff: int) -> Set[int]:
        """Flip-flops sharing an edge with ``ff`` (built once; do not modify)."""
        return self._neighbors[ff]

    def fingerprint(self) -> str:
        """Stable content hash of the topology (names and edge indices).

        Two topologies with the same fingerprint are interchangeable for
        solving; the engine uses this to key warm worker state so
        repeated flows on one design reuse worker pools.
        """
        digest = hashlib.blake2b(digest_size=16)
        for name in self.ff_names:
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
        digest.update(self.edge_launch.tobytes())
        digest.update(self.edge_capture.tobytes())
        return digest.hexdigest()


# ----------------------------------------------------------------------
# Per-sample numeric data
# ----------------------------------------------------------------------
@dataclass
class SampleProblem:
    """Numeric data of one sample, in solver units.

    ``setup_bound[k]`` is the right-hand side of ``x_i - x_j <= b`` and
    ``hold_bound[k]`` of ``x_j - x_i <= b`` for edge ``k = (i, j)``;
    ``lower`` / ``upper`` are the per-flip-flop tuning windows.  In
    discrete mode every quantity is expressed in integer tuning steps
    (bounds already conservatively rounded).
    """

    setup_bound: np.ndarray
    hold_bound: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def violated_edges(self) -> np.ndarray:
        """Indices of edges violated when no buffer is adjusted."""
        return np.where((self.setup_bound < -_TOL) | (self.hold_bound < -_TOL))[0]


@dataclass
class SampleSolution:
    """Outcome of the per-sample optimisation.

    Attributes
    ----------
    feasible:
        Whether every violated region could be repaired within the
        candidate buffers and their ranges.
    tunings:
        Mapping flip-flop index -> tuning value (solver units) for the
        flip-flops the solver decided to adjust.  Zero-valued entries are
        dropped.
    n_adjusted:
        Number of adjusted buffers (``n_k`` in the paper).
    unrescuable_regions:
        Number of violated regions that could not be repaired.
    """

    feasible: bool
    tunings: Dict[int, float] = field(default_factory=dict)
    n_adjusted: int = 0
    unrescuable_regions: int = 0


def coupled_components(
    rows: DifferenceRows, n: int
) -> List[Tuple[List[int], Tuple[List[int], List[int], List[float]]]]:
    """Split the positions ``0 .. n - 1`` of a support by its scope rows.

    A row between two buffers couples them; a row to the reference
    (position ``n``) only bounds its buffer, and a ``u == v`` row
    constrains no value.  Returns one ``(members, rows)`` pair per
    connected component of the coupling rows, by least member: the
    members ascending, and the rows that touch them, in input order and
    renumbered to positions in ``members`` with the reference at
    ``len(members)``.  A row with both ends at the reference belongs to
    no component.  The concentration objective is separable and no row
    spans two components, so a support's canonical optimum is its
    components' optima side by side.
    """
    u, v, w = (array.tolist() for array in rows)
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in zip(u, v, strict=True):
        if a < n and b < n:
            ra, rb = find(a), find(b)
            root[max(ra, rb)] = min(ra, rb)
    members: Dict[int, List[int]] = {}
    local = [0] * n
    for p in range(n):
        group = members.setdefault(find(p), [])
        local[p] = len(group)
        group.append(p)
    parts = {r: ([], [], []) for r in members}
    for a, b, c in zip(u, v, w, strict=True):
        end = a if a < n else b
        if end == n:
            continue
        r = find(end)
        size = len(members[r])
        part_u, part_v, part_w = parts[r]
        part_u.append(local[a] if a < n else size)
        part_v.append(local[b] if b < n else size)
        part_w.append(c)
    return [(group, parts[r]) for r, group in members.items()]


def closed_form_concentration(
    lower: Sequence[float],
    upper: Sequence[float],
    rows: DifferenceRows,
    targets: Sequence[float],
    integral: bool,
) -> Optional[List[float]]:
    """The canonical concentration optimum of one or two buffers.

    ``lower``, ``upper`` and ``targets`` hold one entry per support
    position, and ``rows`` are the support's scope rows with the
    reference at position ``len(lower)`` (arrays or lists, as from
    :func:`coupled_components`).  The canonical optimum is the
    lexicographically smallest ``(sum |x_i - t_i|, sum |x_i|, x_0, x_1)``
    over the feasible set (its integer points when ``integral``), with
    both sums rounded to 1e-9 before they are compared.  It depends on
    the set of rows only, not on their order.  Returns ``None`` when the
    feasible set is empty.

    The rows reduce to a box and, for two buffers, a band
    ``dlo <= x_0 - x_1 <= dhi``.  For a fixed ``x_0`` the best ``x_1`` is
    its target clamped to the interval the box and band leave it (on the
    integer grid, the clamped floor or ceiling of the target).  What is
    left is convex and piecewise linear in ``x_0``, and its smallest
    minimiser is one of its kinks: an end of the box, a target, 0, or
    one of ``lo_1, hi_1, t_1, 0`` shifted by ``dlo`` or ``dhi`` (on the
    grid, the floor or ceiling of one).  Each kink is clipped to the
    feasible range of ``x_0`` and the best candidate pair is returned.
    """
    n = len(lower)
    lo = _as_list(lower)
    hi = _as_list(upper)
    dlo, dhi = -math.inf, math.inf
    for u, v, w in zip(*(_as_list(array) for array in rows), strict=True):
        if u == v:
            if w < -_TOL:
                return None
        elif v == n:
            hi[u] = min(hi[u], w)
        elif u == n:
            lo[v] = max(lo[v], -w)
        elif u == 0:
            dhi = min(dhi, w)
        else:
            dlo = max(dlo, -w)
    if integral:
        lo = [float(math.ceil(b - _TOL)) for b in lo]
        hi = [float(math.floor(b + _TOL)) for b in hi]
        if dlo > -math.inf:
            dlo = float(math.ceil(dlo - _TOL))
        if dhi < math.inf:
            dhi = float(math.floor(dhi + _TOL))
    if any(low > high + _TOL for low, high in zip(lo, hi, strict=True)):
        return None
    if n == 1:
        (t,) = _as_list(targets)
        return [
            min(
                _nearest(lo[0], hi[0], t, integral),
                key=lambda x: (round(abs(x - t), 9), round(abs(x), 9), x),
            )
        ]

    t0, t1 = _as_list(targets)
    first_lo = max(lo[0], lo[1] + dlo)
    first_hi = min(hi[0], hi[1] + dhi)
    if dlo > dhi + _TOL or first_lo > first_hi + _TOL:
        return None
    kinks = [lo[0], hi[0], t0, 0.0]
    for b in (lo[1], hi[1], t1, 0.0):
        kinks += (b + dlo, b + dhi)
    firsts = {min(max(kink, first_lo), first_hi) for kink in kinks}
    if integral:
        firsts = {float(f(x)) for x in firsts for f in (math.floor, math.ceil)}
    best = None
    for x0 in firsts:
        spread, size = abs(x0 - t0), abs(x0)
        for x1 in _nearest(max(lo[1], x0 - dhi), min(hi[1], x0 - dlo), t1, integral):
            key = (round(spread + abs(x1 - t1), 9), round(size + abs(x1), 9), x0, x1)
            if best is None or key < best:
                best = key
    return [best[2], best[3]]


def _nearest(low: float, high: float, target: float, integral: bool) -> Tuple[float, ...]:
    """Where ``|x - target|`` is least on ``[low, high]``: the clamped
    target, or on the integer grid its clamped floor and ceiling."""
    if integral:
        down = min(max(float(math.floor(target)), low), high)
        up = min(max(float(math.ceil(target)), low), high)
        return (down,) if down == up else (down, up)
    return (min(max(target, low), high),)


def _as_list(values: Sequence) -> list:
    """``values`` as a Python list (an array converted, a list as is)."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


#: Flow amounts and capacities closer to 0 than this are 0.
_FLOW_TOL = 1e-9

#: Bound on the augmentations of one flow solve; each one saturates an
#: arc or settles a node, so a handful per buffer is the norm.
_MAX_AUGMENTATIONS = 1000


def flow_concentration(
    lower: Sequence[float],
    upper: Sequence[float],
    rows: DifferenceRows,
    targets: Sequence[float],
    integral: bool,
) -> Optional[List[float]]:
    """The canonical concentration optimum of any number of buffers.

    Takes what :func:`closed_form_concentration` takes, with finite
    windows, and returns the same optimum: the least
    ``(sum |x_i - t_i|, sum |x_i|)`` lexicographically, then the
    componentwise-least point (which is also the lexicographically
    smallest, as the optima form a lattice), or ``None`` when the
    feasible set is empty.

    This is a convex-cost dual network-flow problem, solved exactly as a
    min-cost flow (Ahuja, Hochbaum and Orlin, Management Science 49(7),
    2003) on the buffers' nodes ``0 .. n - 1`` and the reference node
    ``n``.  Every row ``x_u - x_v <= w`` and every window bound is an
    uncapacitated arc ``u -> v`` of cost ``w``.  Flows and capacities are
    pairs compared lexicographically, one entry per objective term: the
    slope of ``(|x - t|, |x|)`` is ``(-1, -1)`` far left of every
    breakpoint, so each buffer's node supplies ``(1, 1)``, and each
    breakpoint ``b`` where the slope rises by ``c`` is an arc ``i -> n``
    of cost ``b`` and capacity ``c``: ``(2 - 2f, 0)`` at ``floor(t)`` and
    ``(2f, 0)`` at ``ceil(t)`` with ``f = t - floor(t)`` on the integer
    grid (where ``|x - t|`` is interpolated between its integer points),
    ``(2, 0)`` at ``t`` otherwise, and ``(0, 2)`` at 0.

    Two Bellman–Ford passes give each buffer's feasible range
    ``[L_i, U_i]`` under all rows.  Only the objective on that range
    matters, so a breakpoint at or above ``U_i`` is dropped and one at
    or below ``L_i`` is folded into the node's supply (which can make it
    a demand node); the starting graph then has no negative cycle.
    Successive shortest paths route each excess to the nearest deficit,
    the reference included.  An arc left with residual capacity is a
    constraint every optimum satisfies, so the shortest distances
    ``d(n, i)`` in the final residual graph give the componentwise-least
    optimum ``x_i = -d(n, i)``.  On the integer grid every cost is an
    integer, and so is every ``x_i``.
    """
    n = len(lower)
    lo, hi, t = _as_list(lower), _as_list(upper), _as_list(targets)
    if integral:
        lo = [float(math.ceil(b - _TOL)) for b in lo]
        hi = [float(math.floor(b + _TOL)) for b in hi]
    cost: Dict[Tuple[int, int], float] = {}
    for u, v, w in zip(*(_as_list(array) for array in rows), strict=True):
        if u == v:
            if w < -_TOL:
                return None
            continue
        if integral:
            w = float(math.floor(w + _TOL))
        if w < cost.get((u, v), math.inf):
            cost[u, v] = w
    for i in range(n):
        for pair, w in (((i, n), hi[i]), ((n, i), -lo[i])):
            if w < cost.get(pair, math.inf):
                cost[pair] = w
    # Along the arcs d(n, i) = -L_i, and against them d(n, i) = U_i.
    arcs = [(u, v, w) for (u, v), w in cost.items()]
    along = _shortest_paths(n + 1, [(None, u, v, w) for u, v, w in arcs], n)
    against = _shortest_paths(n + 1, [(None, v, u, w) for u, v, w in arcs], n)
    if along is None or against is None:
        return None
    lowest = [-d for d in along[0]]
    highest = against[0]

    # Residual graph: arc k and its reverse k ^ 1, with pair capacities.
    tails: List[int] = []
    heads: List[int] = []
    costs: List[float] = []
    caps: List[Tuple[float, float]] = []

    def add_arc(tail: int, head: int, weight: float, capacity: Tuple[float, float]) -> None:
        tails.extend((tail, head))
        heads.extend((head, tail))
        costs.extend((weight, -weight))
        caps.extend((capacity, (0.0, 0.0)))

    for u, v, w in arcs:
        add_arc(u, v, w, (math.inf, 0.0))
    excess = [(1.0, 1.0)] * n + [(0.0, 0.0)]
    for i in range(n):
        if integral:
            down = math.floor(t[i])
            f = t[i] - down
            breakpoints = (
                (down, (_snap(2.0 - 2.0 * f), 0.0)),
                (down + 1, (_snap(2.0 * f), 0.0)),
            )
        else:
            breakpoints = ((t[i], (2.0, 0.0)),)
        for b, capacity in (*breakpoints, (0.0, (0.0, 2.0))):
            if b >= highest[i] or not _pair_positive(capacity):
                continue
            if b <= lowest[i]:
                excess[i] = _pair_sub(excess[i], capacity)
            else:
                add_arc(i, n, float(b), capacity)
    excess[n] = _pair_sub((0.0, 0.0), _pair_sum(excess[:n]))

    nodes = range(n + 1)
    for _augmentation in range(_MAX_AUGMENTATIONS):
        source = next((i for i in nodes if _pair_positive(excess[i])), None)
        if source is None:
            break
        found = _shortest_paths(n + 1, _residual_arcs(tails, heads, costs, caps), source)
        if found is None:
            return None
        dist, pred = found
        sink = min(
            (i for i in nodes if _pair_positive(_pair_sub((0.0, 0.0), excess[i]))),
            key=lambda i: (dist[i], i),
            default=None,
        )
        if sink is None:
            break
        path = []
        node = sink
        while node != source:
            k = pred[node]
            if k is None or len(path) > n:  # unreachable, or a cycle
                return None
            path.append(k)
            node = tails[k]
        amount = _pair_min(
            [excess[source], _pair_sub((0.0, 0.0), excess[sink])] + [caps[k] for k in path]
        )
        for k in path:
            caps[k] = _pair_sub(caps[k], amount)
            caps[k ^ 1] = _pair_sum((caps[k ^ 1], amount))
        excess[source] = _pair_sub(excess[source], amount)
        excess[sink] = _pair_sum((excess[sink], amount))
    else:
        return None
    found = _shortest_paths(n + 1, _residual_arcs(tails, heads, costs, caps), n)
    if found is None:
        return None
    return [0.0 - d for d in found[0][:n]]


def _shortest_paths(
    n_nodes: int, arcs: List[Tuple[Optional[int], int, int, float]], source: int
) -> Optional[Tuple[List[float], List[Optional[int]]]]:
    """Bellman–Ford from ``source`` over ``(label, tail, head, cost)``
    arcs: the distances, and per node the label of the last arc of a
    shortest path to it; ``None`` for a negative cycle."""
    dist = [math.inf] * n_nodes
    dist[source] = 0.0
    pred: List[Optional[int]] = [None] * n_nodes
    for _iteration in range(n_nodes):
        changed = False
        for label, a, b, c in arcs:
            d = dist[a] + c
            if d < dist[b] - 1e-12:
                dist[b] = d
                pred[b] = label
                changed = True
        if not changed:
            return dist, pred
    return None


def _residual_arcs(tails, heads, costs, caps) -> List[Tuple[int, int, int, float]]:
    """``(k, tail, head, cost)`` of every arc ``k`` with residual capacity."""
    return [
        (k, tails[k], heads[k], costs[k]) for k in range(len(caps)) if _pair_positive(caps[k])
    ]


def _pair_positive(pair: Tuple[float, float]) -> bool:
    return pair[0] > 0.0 or (pair[0] == 0.0 and pair[1] > 0.0)


def _pair_min(pairs: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """The lexicographically least pair; first entries within
    ``_FLOW_TOL`` of each other tie."""
    best = None
    for pair in pairs:
        if best is None or pair[0] < best[0] - _FLOW_TOL or (
            pair[0] <= best[0] + _FLOW_TOL and pair[1] < best[1]
        ):
            best = pair
    return best


def _snap(value: float) -> float:
    return 0.0 if -_FLOW_TOL < value < _FLOW_TOL else value


def _pair_sub(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    return (_snap(a[0] - b[0]), _snap(a[1] - b[1]))


def _pair_sum(pairs) -> Tuple[float, float]:
    return (_snap(sum(p[0] for p in pairs)), _snap(sum(p[1] for p in pairs)))


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
class PerSampleSolver:
    """Solves the per-sample minimisation problems (both backends).

    Parameters
    ----------
    topology:
        Static constraint-graph topology.
    backend:
        ``"graph"`` or ``"milp"``.
    pool_hops:
        Neighbourhood radius around violated edges from which buffers may
        be recruited.
    max_pool_expansions:
        How many times the pool may be widened when a region stays
        infeasible.
    concentrate:
        Whether to concentrate the tuning values (phase 2 of each
        per-sample problem) to their canonical optimum, component by
        component: in closed form or as a min-cost flow, never an LP.
    lp_backend:
        LP backend (one of :data:`LP_BACKEND_CHOICES`) of the MILP
        backend's relaxations.  The graph backend solves no LP.
    """

    def __init__(
        self,
        topology: ConstraintTopology,
        backend: str = "graph",
        pool_hops: int = 1,
        max_pool_expansions: int = 3,
        concentrate: bool = True,
        lp_backend: str = "auto",
        integral: bool = True,
    ) -> None:
        if backend not in ("graph", "milp"):
            raise ValueError(f"unknown backend {backend!r}")
        if lp_backend not in LP_BACKEND_CHOICES:
            raise ValueError(f"unknown LP backend {lp_backend!r}")
        self.topology = topology
        self.backend = backend
        self.pool_hops = int(pool_hops)
        self.max_pool_expansions = int(max_pool_expansions)
        self.concentrate = bool(concentrate)
        self.lp_backend = lp_backend
        self.integral = bool(integral)

    def state_fingerprint(self) -> str:
        """Content hash identifying this solver as warm worker state.

        Combines the topology fingerprint with every solver setting;
        solvers with equal fingerprints produce identical results for
        identical inputs, so a worker pool warmed with one can serve the
        other without being restarted.
        """
        settings = (
            f"{self.backend}|{self.pool_hops}|{self.max_pool_expansions}"
            f"|{int(self.concentrate)}|{self.lp_backend}|{int(self.integral)}"
        )
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.topology.fingerprint().encode())
        digest.update(settings.encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: SampleProblem,
        candidates: Optional[np.ndarray] = None,
        targets: Optional[np.ndarray] = None,
    ) -> SampleSolution:
        """Solve one sample.

        Parameters
        ----------
        problem:
            The sample's bounds and windows (solver units).
        candidates:
            Boolean mask of flip-flops that may receive a buffer (defaults
            to all).
        targets:
            Optional per-flip-flop concentration targets (defaults to 0,
            i.e. the paper's step-1 objective ``sum |x_i|``).
        """
        n_ffs = self.topology.n_ffs
        if candidates is None:
            candidates = np.ones(n_ffs, dtype=bool)
        candidates = np.asarray(candidates, dtype=bool)
        if targets is None:
            targets = np.zeros(n_ffs)
        targets = np.asarray(targets, dtype=float)

        violated = problem.violated_edges()
        if violated.size == 0:
            return SampleSolution(feasible=True)

        regions = self._violated_regions(violated)
        tunings: Dict[int, float] = {}
        unrescuable = 0
        for region_edges in regions:
            solved = self._solve_region(problem, region_edges, candidates, targets)
            if solved is None:
                unrescuable += 1
                continue
            for ff, value in solved.items():
                if abs(value) > _TOL:
                    tunings[ff] = float(value)
        feasible = unrescuable == 0
        return SampleSolution(
            feasible=feasible,
            tunings=tunings,
            n_adjusted=len(tunings),
            unrescuable_regions=unrescuable,
        )

    # ------------------------------------------------------------------
    # Region decomposition
    # ------------------------------------------------------------------
    def _violated_regions(self, violated_edges: np.ndarray) -> List[List[int]]:
        """Group violated edges into connected components (shared flip-flops)."""
        parent: Dict[int, int] = {}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        ff_to_root: Dict[int, int] = {}
        for k in violated_edges:
            k = int(k)
            parent[k] = k
            for ff in (int(self.topology.edge_launch[k]), int(self.topology.edge_capture[k])):
                if ff in ff_to_root:
                    union(k, ff_to_root[ff])
                else:
                    ff_to_root[ff] = k
        groups: Dict[int, List[int]] = {}
        for k in violated_edges:
            groups.setdefault(find(int(k)), []).append(int(k))
        return list(groups.values())

    # ------------------------------------------------------------------
    # Region solving: cover, expand, prune, concentrate
    # ------------------------------------------------------------------
    def _solve_region(
        self,
        problem: SampleProblem,
        region_edges: List[int],
        candidates: np.ndarray,
        targets: np.ndarray,
    ) -> Optional[Dict[int, float]]:
        region_ffs = self._region_ffs(region_edges)
        pool = self._build_pool(region_ffs, candidates, self.pool_hops)
        if not pool:
            return None

        # Whether a support repairs the region depends on nothing else, so
        # every support checked below is solved once and remembered here,
        # for this region only (the solver itself is warm state shared
        # across flows and shipped to workers).
        witnesses: Dict[FrozenSet[int], Optional[ScopeWitness]] = {}
        support: Optional[Set[int]] = None
        for expansion in range(self.max_pool_expansions + 1):
            support = self._find_feasible_support(problem, region_edges, pool, witnesses)
            if support is not None:
                break
            pool = self._build_pool(region_ffs, candidates, self.pool_hops + expansion + 1)
        if support is None:
            return None

        support = self._prune_support(problem, region_edges, support, witnesses)
        return self._concentrate(problem, region_edges, support, targets, witnesses)

    def _region_ffs(self, region_edges: Iterable[int]) -> Set[int]:
        """Flip-flops at either end of the region's edges."""
        launch, capture = self.topology.edge_launch, self.topology.edge_capture
        return {int(ff) for k in region_edges for ff in (launch[k], capture[k])}

    def _build_pool(self, region_ffs: Set[int], candidates: np.ndarray, hops: int) -> Set[int]:
        """Candidate buffers reachable within ``hops`` from the region."""
        frontier = set(region_ffs)
        pool = set(region_ffs)
        for _ in range(hops):
            new_frontier: Set[int] = set()
            for ff in frontier:
                new_frontier |= self.topology.neighbors(ff)
            new_frontier -= pool
            pool |= new_frontier
            frontier = new_frontier
        return {ff for ff in pool if candidates[ff]}

    # ------------------------------------------------------------------
    def _scope_edges(self, support: Iterable[int], region_edges: List[int]) -> List[int]:
        """All constraints relevant to a support: edges incident to any
        supported flip-flop plus the region's violated edges."""
        scope: Set[int] = set(region_edges)
        for ff in support:
            scope.update(self.topology.edges_of_ff[ff])
        return sorted(scope)

    def _scope_rows(
        self, problem: SampleProblem, ffs: List[int], region_edges: List[int]
    ) -> DifferenceRows:
        """Scope rows of a support ``ffs`` (ascending) that covers its
        region: of the setup and hold rows of every scope edge
        (:func:`~repro.core.difference.edge_rows`), the tightest one per
        ordered pair of positions, in ascending ``(u, v)`` order
        (:func:`~repro.core.difference.tightest_rows`).

        Ends outside the support are pinned to 0, i.e. mapped to the
        reference position ``len(ffs)``.  A covering support leaves no
        scope edge with both ends pinned: the scope's other edges all
        touch the support.  The rows are a function of the scope's
        constraint set, so Bellman–Ford, the witnesses and concentration
        never depend on edge order.
        """
        scope = np.array(self._scope_edges(ffs, region_edges), dtype=np.intp)
        position = np.full(self.topology.n_ffs, len(ffs))
        position[ffs] = np.arange(len(ffs))
        rows = edge_rows(
            position[self.topology.edge_launch[scope]],
            position[self.topology.edge_capture[scope]],
            problem.setup_bound[scope],
            problem.hold_bound[scope],
        )
        return tightest_rows(rows, len(ffs))

    def _is_feasible(
        self,
        problem: SampleProblem,
        region_edges: List[int],
        support: Set[int],
        witnesses: Dict[FrozenSet[int], Optional[ScopeWitness]],
    ) -> bool:
        return self._feasible_assignment(problem, region_edges, support, witnesses) is not None

    def _feasible_assignment(
        self,
        problem: SampleProblem,
        region_edges: List[int],
        support: Set[int],
        witnesses: Dict[FrozenSet[int], Optional[ScopeWitness]],
    ) -> Optional[ScopeWitness]:
        """The support's scope rows and a Bellman–Ford witness (values of
        non-support FFs are implicitly zero), or ``None`` when the support
        cannot repair the region.

        A support that leaves a region edge with no endpoint in it is
        rejected before any scope is built: every region edge is
        violated, and with both ends pinned to 0 nothing can repair it.
        ``witnesses`` holds the answer for every support already checked
        in the region, so no support is solved twice.
        """
        key = frozenset(support)
        if key in witnesses:
            return witnesses[key]
        found = None
        launch, capture = self.topology.edge_launch, self.topology.edge_capture
        if all(int(launch[k]) in key or int(capture[k]) in key for k in region_edges):
            ffs = sorted(support)
            rows = self._scope_rows(problem, ffs, region_edges)
            assignment = solve_difference_system(
                ffs, rows, problem.lower[ffs], problem.upper[ffs]
            )
            if assignment is not None:
                found = (rows, assignment)
        witnesses[key] = found
        return found

    # ------------------------------------------------------------------
    def _find_feasible_support(
        self,
        problem: SampleProblem,
        region_edges: List[int],
        pool: Set[int],
        witnesses: Dict[FrozenSet[int], Optional[ScopeWitness]],
    ) -> Optional[Set[int]]:
        """Greedy cover of the violated edges, expanded until feasible."""
        launch, capture = self.topology.edge_launch, self.topology.edge_capture

        uncovered = set(region_edges)
        support: Set[int] = set()
        while uncovered:
            counts: Dict[int, int] = {}
            for k in uncovered:
                for ff in (int(launch[k]), int(capture[k])):
                    if ff in pool:
                        counts[ff] = counts.get(ff, 0) + 1
            if not counts:
                # Some violated edge has no adjustable endpoint at all.
                return None
            best = max(counts, key=lambda ff: (counts[ff], -ff))
            support.add(best)
            uncovered = {
                k
                for k in uncovered
                if int(launch[k]) != best and int(capture[k]) != best
            }

        if self._is_feasible(problem, region_edges, support, witnesses):
            return support

        # Expand: repeatedly add the remaining pool flip-flops adjacent to the
        # current support until the system becomes feasible.
        remaining = set(pool) - support
        while remaining:
            adjacent = {
                ff
                for ff in remaining
                if self.topology.neighbors(ff) & support
            } or remaining
            support |= adjacent
            remaining -= adjacent
            if self._is_feasible(problem, region_edges, support, witnesses):
                return support
        return None

    def _prune_support(
        self,
        problem: SampleProblem,
        region_edges: List[int],
        support: Set[int],
        witnesses: Dict[FrozenSet[int], Optional[ScopeWitness]],
    ) -> Set[int]:
        """Remove buffers whose removal keeps the region feasible (minimality)."""
        launch, capture = self.topology.edge_launch, self.topology.edge_capture
        # Remove the least useful buffers first (fewest incident violated edges).
        usefulness = {
            ff: sum(
                1
                for k in region_edges
                if int(launch[k]) == ff or int(capture[k]) == ff
            )
            for ff in support
        }
        pruned = set(support)
        for ff in sorted(support, key=lambda f: (usefulness[f], f)):
            if len(pruned) == 1:
                break
            trial = pruned - {ff}
            if self._is_feasible(problem, region_edges, trial, witnesses):
                pruned = trial
        return pruned

    # ------------------------------------------------------------------
    def _concentrate(
        self,
        problem: SampleProblem,
        region_edges: List[int],
        support: Set[int],
        targets: np.ndarray,
        witnesses: Dict[FrozenSet[int], Optional[ScopeWitness]],
    ) -> Optional[Dict[int, float]]:
        """Minimise ``sum |x_i - target_i|`` over the support (phase 2).

        This is the paper's problems (14)–(17) and (18)–(21) with the
        buffer count fixed by the support.  The support's scope rows and
        Bellman–Ford witness come from ``witnesses``, where the support
        search left them, so concentration solves no difference system.
        The values come from :meth:`_concentrated_values`; the witness is
        returned when concentration is disabled or falls back.
        """
        found = self._feasible_assignment(problem, region_edges, support, witnesses)
        if found is None:
            return None
        rows, witness = found
        if not self.concentrate:
            return witness
        ffs = sorted(support)
        x = self._concentrated_values(problem, ffs, rows, targets)
        if x is None:
            return witness
        # Keyed in the support's iteration order, which callers see.
        values = dict(zip(ffs, x, strict=True))
        return {ff: values[ff] for ff in support}

    def _concentrated_values(
        self,
        problem: SampleProblem,
        ffs: List[int],
        rows: DifferenceRows,
        targets: np.ndarray,
    ) -> Optional[List[float]]:
        """Concentrated values of a support ``ffs`` (ascending) with scope
        ``rows``, or ``None`` to fall back to the Bellman–Ford witness.

        The values are the support's canonical optimum, component by
        component (:func:`coupled_components`; a support of one or two
        buffers is one component): one or two buffers in closed form
        (:func:`closed_form_concentration`), more as a min-cost flow
        (:func:`flow_concentration`).  Every component's point is checked
        with :func:`~repro.core.difference.check_assignment` on its rows.
        Each fallback is counted in :mod:`repro.obs` under
        ``solver.concentrate.fallback.*``: a solver finds no point
        (``closed_form_empty``, ``flow_empty``) or its point fails the
        check (``closed_form_check``, ``flow_check``).
        ``solver.concentrate.flow_solves`` counts the flows.
        """
        n = len(ffs)
        lower = problem.lower[ffs].tolist()
        upper = problem.upper[ffs].tolist()
        target = targets[ffs].tolist()
        parts = coupled_components(rows, n) if n > 2 else [(list(range(n)), rows)]
        registry = get_registry()
        x = [0.0] * n
        for members, part_rows in parts:
            lo = [lower[p] for p in members]
            hi = [upper[p] for p in members]
            t = [target[p] for p in members]
            if len(members) <= 2:
                point = closed_form_concentration(lo, hi, part_rows, t, self.integral)
                if point is None:
                    registry.counter("solver.concentrate.fallback.closed_form_empty").inc()
                    return None
                if not check_assignment(point, part_rows, lo, hi, tolerance=1e-6):
                    registry.counter("solver.concentrate.fallback.closed_form_check").inc()
                    return None
            else:
                registry.counter("solver.concentrate.flow_solves").inc()
                point = flow_concentration(lo, hi, part_rows, t, self.integral)
                if point is None:
                    registry.counter("solver.concentrate.fallback.flow_empty").inc()
                    return None
                if not check_assignment(point, part_rows, lo, hi, tolerance=1e-6):
                    registry.counter("solver.concentrate.fallback.flow_check").inc()
                    return None
            for p, value in zip(members, point, strict=True):
                x[p] = value
        return x

    # ------------------------------------------------------------------
    # Faithful MILP formulation (validation backend)
    # ------------------------------------------------------------------
    def solve_with_milp(
        self,
        problem: SampleProblem,
        candidates: Optional[np.ndarray] = None,
        targets: Optional[np.ndarray] = None,
        max_nodes: int = 5000,
    ) -> SampleSolution:
        """Solve one sample with the paper's big-M integer program.

        The models are built over the candidate pools of the violated
        regions (:meth:`_milp_models`) instead of every flip-flop of the
        circuit, which preserves optimality for the minimum-buffer
        objective whenever the pools are large enough, and keeps the
        branch & bound tractable.  Each model is warm-started from the
        graph search (:meth:`solve`).
        """
        from repro.milp.expr import LinExpr
        from repro.milp.model import Model, VarType

        n_ffs = self.topology.n_ffs
        if candidates is None:
            candidates = np.ones(n_ffs, dtype=bool)
        if targets is None:
            targets = np.zeros(n_ffs)

        violated = problem.violated_edges()
        if violated.size == 0:
            return SampleSolution(feasible=True)

        warm = self.solve(problem, candidates, targets)

        tunings: Dict[int, float] = {}
        unrescuable = 0
        for n_regions, pool, scope in self._milp_models(violated, candidates):
            if not pool:
                unrescuable += n_regions
                continue

            model = Model("sample_milp")
            vtype = VarType.INTEGER if self.integral else VarType.CONTINUOUS
            gamma = float(np.max(np.abs(np.concatenate([problem.lower, problem.upper])))) + 1.0
            x_vars = {}
            c_vars = {}
            for ff in sorted(pool):
                x_vars[ff] = model.add_var(
                    f"x_{ff}", lb=float(problem.lower[ff]), ub=float(problem.upper[ff]), vtype=vtype
                )
                c_vars[ff] = model.add_var(f"c_{ff}", vtype=VarType.BINARY)
                model.add_constr(x_vars[ff] - gamma * c_vars[ff] <= 0)
                model.add_constr(-1.0 * x_vars[ff] - gamma * c_vars[ff] <= 0)
            feasible_model = True
            for k in scope:
                i, j = int(self.topology.edge_launch[k]), int(self.topology.edge_capture[k])
                bs, bh = float(problem.setup_bound[k]), float(problem.hold_bound[k])
                xi = x_vars.get(i)
                xj = x_vars.get(j)
                if xi is None and xj is None:
                    if bs < -_TOL or bh < -_TOL:
                        feasible_model = False
                    continue
                if xi is not None and xj is not None:
                    model.add_constr(x_vars[i] - x_vars[j] <= bs)
                    model.add_constr(x_vars[j] - x_vars[i] <= bh)
                elif xi is not None:
                    model.add_constr(1.0 * x_vars[i] <= bs)
                    model.add_constr(-1.0 * x_vars[i] <= bh)
                else:
                    model.add_constr(-1.0 * x_vars[j] <= bs)
                    model.add_constr(1.0 * x_vars[j] <= bh)
            if not feasible_model:
                unrescuable += n_regions
                continue

            model.set_objective(LinExpr.sum_of(list(c_vars.values())))
            warm_map = None
            if warm.feasible or warm.tunings:
                warm_map = {}
                for ff in pool:
                    value = warm.tunings.get(ff, 0.0)
                    warm_map[x_vars[ff]] = value
                    warm_map[c_vars[ff]] = 1.0 if abs(value) > _TOL else 0.0
            count_solution = model.solve(backend=self.lp_backend, max_nodes=max_nodes, warm_start=warm_map)
            if not count_solution.is_feasible:
                unrescuable += n_regions
                continue
            n_k = int(round(count_solution.objective))

            # Phase 2: concentrate around the target with csum <= n_k.
            model.add_constr(LinExpr.sum_of(list(c_vars.values())) <= float(n_k))
            t_vars = {}
            for ff in sorted(pool):
                span = float(problem.upper[ff] - problem.lower[ff]) + abs(float(targets[ff])) + 1.0
                t_vars[ff] = model.add_var(f"t_{ff}", lb=0.0, ub=span)
                model.add_constr(t_vars[ff] >= x_vars[ff] - float(targets[ff]))
                model.add_constr(t_vars[ff] >= float(targets[ff]) - x_vars[ff])
            model.set_objective(LinExpr.sum_of(list(t_vars.values())))
            value_solution = model.solve(backend=self.lp_backend, max_nodes=max_nodes, warm_start=None)
            chosen = value_solution if value_solution.is_feasible else count_solution
            for ff in pool:
                value = chosen[x_vars[ff]]
                if self.integral:
                    value = round(value)
                if abs(value) > _TOL:
                    tunings[ff] = float(value)
        return SampleSolution(
            feasible=unrescuable == 0,
            tunings=tunings,
            n_adjusted=len(tunings),
            unrescuable_regions=unrescuable,
        )

    def _milp_models(
        self, violated: np.ndarray, candidates: np.ndarray
    ) -> List[Tuple[int, Set[int], List[int]]]:
        """The violated regions grouped into MILP models: per model, its
        number of regions, its pool and its scope.

        A region's pool is its candidate buffers within
        ``max(pool_hops, 2)`` hops, and its scope is its own edges and
        every edge incident to the pool; flip-flops outside the pool stay
        at 0.  Regions whose scopes share an edge (their pools share a
        flip-flop, or an edge joins them) form one model over the union of
        their pools and scopes.  Solved apart, both models would repair a
        violated edge in both scopes and count its buffers twice, and an
        edge between the pools would see each end moved with the other
        pinned at 0.
        """
        hops = max(self.pool_hops, 2)
        models: List[Tuple[int, Set[int], Set[int]]] = []
        for edges in self._violated_regions(violated):
            pool = self._build_pool(self._region_ffs(edges), candidates, hops)
            n_regions, scope = 1, set(self._scope_edges(pool, edges))
            for other in [model for model in models if model[2] & scope]:
                models.remove(other)
                n_regions += other[0]
                pool |= other[1]
                scope |= other[2]
            models.append((n_regions, pool, scope))
        return [(n_regions, pool, sorted(scope)) for n_regions, pool, scope in models]
