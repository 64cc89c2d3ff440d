"""Arrival-time propagation.

All three engines walk the netlist's combinational graph on integer ids
(:class:`~repro.circuit.netlist.CombinationalGraph`, read through the
:class:`~repro.timing.graph.TimingGraph`) in its one topological order,
folding each node's drivers in pin order:

* :func:`nominal_arrival_times` — classic deterministic STA over the whole
  graph (a test oracle and sanity check);
* :func:`all_ff_pair_delay_forms` — **array-native** statistical
  propagation: one level-ordered sweep of the whole timing graph over a
  flat coefficient table holding, for every reached node, one arrival
  row per launching flip-flop whose fan-out cone contains it; a row's
  first arrival is a copy, and each later fold round of a level is one
  Clark kernel call
  (:func:`~repro.variation.arrayforms.clark_max_coeffs`) across all of
  the level's nodes and launch flip-flops;
* :func:`ff_pair_delay_forms` — the scalar per-launch reference path
  (object-at-a-time :class:`~repro.variation.canonical.CanonicalForm`
  propagation restricted to one fan-out cone), kept as the equivalence
  oracle for the array sweep (``method="scalar"``).

Both statistical paths give for every connected flip-flop pair the
canonical form of the maximum and minimum combinational delay (including
the launching flip-flop's clock-to-Q), returned as arrays
(:class:`PairDelayForms`): the pairs' flip-flop indices and one stacked
coefficient matrix per delay.  These forms are the statistical ``d_ij``
/ ``d-bar_ij`` of the paper's constraints (1)–(2);
:func:`repro.timing.constraints.extract_constraint_graph` turns the
stacks into the design's compiled constraint system.  The array sweep
applies the same Clark formulas elementwise and agrees with the scalar
path to well below ``1e-12``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.trace import span as trace_span
from repro.timing.graph import TimingGraph
from repro.variation.arrayforms import ArrayForms, clark_max_coeffs
from repro.variation.canonical import CanonicalForm


def nominal_arrival_times(timing_graph: TimingGraph) -> Dict[Hashable, Tuple[float, float]]:
    """Deterministic max/min arrival time at every node.

    All launch points (primary inputs and flip-flop outputs) start at time
    zero plus their own delay annotation (clock-to-Q for flip-flops).
    Nodes unreachable from any launch point get ``(0, 0)``.

    Returns
    -------
    dict
        ``node -> (max_arrival, min_arrival)``.
    """
    comb = timing_graph.comb
    annotations = timing_graph.annotations
    launches = {comb.index[name] for name in timing_graph.launch_nodes()}
    arrival: Dict[int, Tuple[float, float]] = {}

    for node in comb.order:
        ann = annotations[node]
        pred_max: Optional[float] = None
        pred_min: Optional[float] = None
        for pred in comb.fanin[node]:
            if pred not in arrival:
                continue
            pmax, pmin = arrival[pred]
            pred_max = pmax if pred_max is None else max(pred_max, pmax)
            pred_min = pmin if pred_min is None else min(pred_min, pmin)
        if pred_max is None:
            if node in launches:
                arrival[node] = (ann.nominal_max, ann.nominal_min)
            else:
                arrival[node] = (0.0, 0.0)
        else:
            arrival[node] = (pred_max + ann.nominal_max, pred_min + ann.nominal_min)
    return {comb.names[node]: times for node, times in arrival.items()}


def ff_pair_delay_forms(
    timing_graph: TimingGraph,
    launch_ff: str,
) -> Dict[str, Tuple[CanonicalForm, CanonicalForm]]:
    """Canonical max/min combinational delay from ``launch_ff`` to every
    capture flip-flop it reaches (scalar reference path).

    The launching flip-flop's clock-to-Q delay is included in the returned
    forms, matching the paper's convention of folding it into ``d_ij``.

    Returns
    -------
    dict
        ``capture_ff -> (max_delay_form, min_delay_form)``.
    """
    comb = timing_graph.comb
    if launch_ff not in comb.index:
        raise KeyError(f"unknown launch flip-flop {launch_ff!r}")
    launch = comb.index[launch_ff]

    cone = {launch}
    stack = [launch]
    while stack:
        for succ in comb.fanout[stack.pop()]:
            if succ not in cone:
                cone.add(succ)
                stack.append(succ)

    launch_ann = timing_graph.annotations[launch]
    arrivals_max: Dict[int, CanonicalForm] = {launch: launch_ann.form_max}
    arrivals_min: Dict[int, CanonicalForm] = {launch: launch_ann.form_min}

    results: Dict[str, Tuple[CanonicalForm, CanonicalForm]] = {}
    for node in comb.order:
        if node == launch or node not in cone:
            continue
        preds_in_cone = [p for p in comb.fanin[node] if p in arrivals_max]
        if not preds_in_cone:
            continue
        max_in = arrivals_max[preds_in_cone[0]]
        min_in = arrivals_min[preds_in_cone[0]]
        for pred in preds_in_cone[1:]:
            max_in = max_in.max(arrivals_max[pred])
            min_in = min_in.min(arrivals_min[pred])

        name = comb.names[node]
        if isinstance(name, tuple):
            # Capture flip-flop: record and do not propagate further.
            results[name[1]] = (max_in, min_in)
            continue

        ann = timing_graph.annotations[node]
        arrivals_max[node] = max_in + ann.form_max
        arrivals_min[node] = min_in + ann.form_min
    return results


# ----------------------------------------------------------------------
# Array-native whole-graph sweep
# ----------------------------------------------------------------------
class PairDelayForms(NamedTuple):
    """Every connected flip-flop pair's delay forms, launch-major.

    Pairs are ordered by launch (in the order of the launch list), then
    by capture in topological discovery order.  Flip-flop indices refer
    to the design's ``netlist.flip_flops`` order.
    """

    #: Launch flip-flop index of every pair (``i`` of the paper).
    launch: np.ndarray
    #: Capture flip-flop index of every pair (``j``).
    capture: np.ndarray
    #: Stacked maximum delay forms ``d_ij``.
    max_forms: ArrayForms
    #: Stacked minimum delay forms ``d-bar_ij``.
    min_forms: ArrayForms


def all_ff_pair_delay_forms(
    timing_graph: TimingGraph,
    launch_ffs: Optional[List[str]] = None,
    method: str = "array",
) -> PairDelayForms:
    """Canonical max/min delay forms for every connected flip-flop pair.

    Parameters
    ----------
    launch_ffs:
        Restrict the analysis to these launching flip-flops (defaults to
        all flip-flops of the design).
    method:
        ``"array"`` (default) runs the level-ordered whole-graph sweep
        with vectorised Clark max across launch flip-flops; ``"scalar"``
        runs the per-launch reference propagation.
    """
    design = timing_graph.design
    launch_ffs = launch_ffs if launch_ffs is not None else list(design.netlist.flip_flops)
    if method not in ("array", "scalar"):
        raise ValueError(f"unknown propagation method {method!r}")
    ff_index = {ff: i for i, ff in enumerate(design.netlist.flip_flops)}
    with trace_span("timing.propagate", design=design.name, method=method):
        if method == "array":
            return _all_pairs_array(timing_graph, launch_ffs, ff_index)
        launches: List[int] = []
        captures: List[int] = []
        max_forms: List[CanonicalForm] = []
        min_forms: List[CanonicalForm] = []
        for launch in launch_ffs:
            for capture, (max_form, min_form) in ff_pair_delay_forms(timing_graph, launch).items():
                launches.append(ff_index[launch])
                captures.append(ff_index[capture])
                max_forms.append(max_form)
                min_forms.append(min_form)
        n_sources = design.variation_model.n_shared_sources
        return PairDelayForms(
            np.array(launches, dtype=np.intp),
            np.array(captures, dtype=np.intp),
            ArrayForms.from_forms(max_forms, n_sources=n_sources),
            ArrayForms.from_forms(min_forms, n_sources=n_sources),
        )


def _form_row(form: CanonicalForm, width: int, negate: bool = False) -> np.ndarray:
    """One canonical form as a flat coefficient row (optionally negated)."""
    row = np.empty(width)
    sign = -1.0 if negate else 1.0
    row[0] = sign * form.mean
    row[1:-1] = sign * form.sensitivities
    row[-1] = form.independent
    return row


def _row_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The row ranges ``starts[k] .. starts[k] + counts[k] - 1``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


#: The merges of a batch: per fold round, its batch rows and the table
#: rows they merge with.
_Merges = List[Tuple[np.ndarray, np.ndarray]]


def _fold_plan(
    nodes: List[int],
    pred_lists: Dict[int, List[int]],
    start: np.ndarray,
    count: np.ndarray,
    row_launch: np.ndarray,
    n_launch: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, _Merges]:
    """Rows, first arrivals and merges of a batch of nodes that feed none
    of each other.

    A node's rows are the union of its predecessors' launch positions,
    ascending; rows are numbered from 0 within the batch, node by node.
    Fold round ``r`` pairs every node with its r-th predecessor.  Where
    that predecessor is the first in pin order to reach a launch, the row
    is a first arrival and copies the predecessor's row, as the scalar
    path starts from its first predecessor in the cone; where an earlier
    predecessor reached it, the round merges the two rows.

    Returns
    -------
    tuple
        ``(node_rows, launches, first, merges)``: the row count of every
        node, the launch position of every row, the table row every row
        copies, and per fold round with merges its batch rows and the
        table rows they merge with.
    """
    # (node, predecessor) pairs round by round: every node's first
    # predecessor, then every second one, and so on.
    n_preds = np.array([len(pred_lists[node]) for node in nodes], dtype=np.intp)
    pair_round = _row_ranges(np.zeros_like(n_preds), n_preds)
    order = np.argsort(pair_round, kind="stable")
    pair_node = np.repeat(np.arange(len(nodes)), n_preds)[order]
    preds = np.array([pred for node in nodes for pred in pred_lists[node]], dtype=np.intp)[order]

    pair_rows = count[preds]
    src = _row_ranges(start[preds], pair_rows)
    keys = np.repeat(pair_node, pair_rows) * n_launch + row_launch[src]
    # Rows by node, then launch position; the first of a row's pairs in
    # round order is its first arrival, every later one a merge.
    batch_keys, first, dest = np.unique(keys, return_index=True, return_inverse=True)
    node_rows = np.bincount(batch_keys // n_launch, minlength=len(nodes))

    row_round = np.repeat(pair_round[order], pair_rows)
    row_round[first] = 0  # copied, like all of round 0
    merges: _Merges = []
    for r in range(1, int(n_preds.max())):
        merged = row_round == r
        if merged.any():
            merges.append((dest[merged], src[merged]))
    return node_rows, batch_keys % n_launch, src[first], merges


def _all_pairs_array(
    timing_graph: TimingGraph, launch_ffs: List[str], ff_index: Dict[str, int]
) -> PairDelayForms:
    """Level-ordered array sweep carrying all launch flip-flops at once.

    ``ff_index`` maps flip-flop names to the indices the pairs carry.

    Every reached node owns a run of rows in one flat ``(n_rows, 2,
    width)`` coefficient table, one row per launch flip-flop whose cone
    contains the node, in launch order.  Plane 0 of a row is the
    max-arrival form and plane 1 the **negated** min-arrival form, so
    both statistical reductions are Clark max (``min(a, b) = -max(-a,
    -b)``, the identity the scalar path uses).  Launch ``i`` owns row
    ``i``.

    Nodes are processed **level by level** (longest predecessor distance
    from a launch), so the nodes of one level feed none of each other;
    the capture nodes, which feed nothing, come last as one batch.  An
    index pass (:func:`_fold_plan`) first gives every reached node its
    launch set, the union of its predecessors' sets, and its rows.  A
    batch then copies every row's first arrival in one gather; each fold
    round that merges is one gather of the r-th predecessor's rows, one
    Clark kernel call and one write back; and a level's node delays are
    added in one vectorised step.

    Every (node, launch) row meets the same Clark operands in the same
    order as the scalar path's fold over the node's predecessors in pin
    order: first arrivals are copies, and only a launch that a second
    predecessor also reaches goes through the kernel.

    The table keeps every reached node's rows until the captured rows
    are emitted, so memory peaks at the end of the sweep: the whole
    table, ``16 * (n_sources + 2)`` bytes per row, with the widest
    batch's kernel temporaries on top.
    """
    comb = timing_graph.comb
    names = comb.names
    annotations = timing_graph.annotations
    for launch in launch_ffs:
        if launch not in comb.index:
            raise KeyError(f"unknown launch flip-flop {launch!r}")
    width = timing_graph.design.variation_model.n_shared_sources + 2
    n_launch = len(launch_ffs)

    # Level schedule over the reachable subgraph: a node's level is one
    # past its deepest reached predecessor, so all nodes of a level have
    # every input ready and none feeds another.  -1 marks unreached.
    levels = [-1] * len(names)
    launch_nodes = [comb.index[ff] for ff in launch_ffs]
    for launch in launch_nodes:
        levels[launch] = 0
    pred_lists: Dict[int, List[int]] = {}
    schedule: List[List[int]] = []
    captures: List[int] = []  # capture nodes in topological discovery order
    for node in comb.order:
        if levels[node] >= 0:
            continue  # launch flip-flop: fixed start, nothing propagates in
        preds = [p for p in comb.fanin[node] if levels[p] >= 0]
        if not preds:
            continue
        depth = 1 + max(levels[p] for p in preds)
        levels[node] = depth
        pred_lists[node] = preds
        if isinstance(names[node], tuple):
            captures.append(node)
            continue
        while len(schedule) < depth:
            schedule.append([])
        schedule[depth - 1].append(node)

    # Node delays as (2, width) rows, one per shared annotation.
    shared = list({id(ann): ann for ann in annotations}.values())
    position = {id(ann): k for k, ann in enumerate(shared)}
    node_delay = np.array([position[id(ann)] for ann in annotations], dtype=np.intp)
    delays = np.array(
        [[_form_row(ann.form_max, width), _form_row(ann.form_min, width, True)] for ann in shared]
    ).reshape(-1, 2, width)

    # Index pass: every batch appends its nodes' rows to the table.
    start = np.zeros(len(names), dtype=np.intp)
    count = np.zeros(len(names), dtype=np.intp)
    start[launch_nodes] = np.arange(n_launch)
    count[launch_nodes] = 1
    row_launch = np.arange(n_launch)  # launch position of every row
    plans: List[Tuple[int, np.ndarray, _Merges, Optional[np.ndarray]]] = []
    n_rows = n_launch
    for batch in [*schedule, captures]:
        if not batch:
            continue  # a level of captures only, or nothing captured
        node_rows, launches, first, merges = _fold_plan(
            batch, pred_lists, start, count, row_launch, n_launch
        )
        nodes = np.array(batch, dtype=np.intp)
        start[nodes] = n_rows + np.cumsum(node_rows) - node_rows
        count[nodes] = node_rows
        row_launch = np.concatenate((row_launch, launches))
        row_delay = None  # capture nodes have no delay of their own
        if not isinstance(names[batch[0]], tuple):
            row_delay = np.repeat(node_delay[nodes], node_rows)
        plans.append((n_rows, first, merges, row_delay))
        n_rows += len(launches)

    # Numeric pass, batch by batch, in place in the table.
    table = np.empty((n_rows, 2, width))
    table[:n_launch] = delays[node_delay[launch_nodes]]
    for base, first, merges, row_delay in plans:
        rows = table[base : base + len(first)]
        rows[...] = table[first]
        for dest, src in merges:
            merged = clark_max_coeffs(rows[dest].reshape(-1, width), table[src].reshape(-1, width))
            rows[dest] = merged.reshape(-1, 2, width)
        if row_delay is not None:
            delay = delays[row_delay]
            rows[..., :-1] += delay[..., :-1]
            rows[..., -1] = np.hypot(rows[..., -1], delay[..., -1])

    # Emit pairs launch-major, captures in topological discovery order
    # (the scalar path's order); the min plane is negated back.
    captured = np.array(captures, dtype=np.intp)
    capture_rows = _row_ranges(start[captured], count[captured])
    position = np.repeat(np.arange(len(captures)), count[captured])
    order = np.lexsort((position, row_launch[capture_rows]))
    emitted = capture_rows[order]
    max_coeffs = table[emitted, 0]
    min_coeffs = table[emitted, 1]
    np.negative(min_coeffs[:, :-1], out=min_coeffs[:, :-1])
    launch_ff = np.array([ff_index[ff] for ff in launch_ffs], dtype=np.intp)
    capture_ff = np.array([ff_index[names[node][1]] for node in captures], dtype=np.intp)
    return PairDelayForms(
        launch_ff[row_launch[emitted]],
        capture_ff[position[order]],
        ArrayForms(max_coeffs),
        ArrayForms(min_coeffs),
    )
