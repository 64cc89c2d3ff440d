"""Arrival-time propagation.

All three engines walk the netlist's combinational graph on integer ids
(:class:`~repro.circuit.netlist.CombinationalGraph`, read through the
:class:`~repro.timing.graph.TimingGraph`) in its one topological order,
folding each node's drivers in pin order:

* :func:`nominal_arrival_times` — classic deterministic STA over the whole
  graph (a test oracle and sanity check);
* :func:`all_ff_pair_delay_forms` — **array-native** statistical
  propagation: one level-ordered sweep of the whole timing graph in which
  every node carries the stacked arrival forms of *all* launching
  flip-flops whose fan-out cone contains it
  (:class:`~repro.variation.arrayforms.ArrayForms`), so the per-node
  Clark max/min runs vectorised across launch flip-flops instead of once
  per flip-flop per cone;
* :func:`ff_pair_delay_forms` — the scalar per-launch reference path
  (object-at-a-time :class:`~repro.variation.canonical.CanonicalForm`
  propagation restricted to one fan-out cone), kept as the equivalence
  oracle for the array sweep.

Both statistical paths produce for every connected flip-flop pair the
canonical form of the maximum and minimum combinational delay (including
the launching flip-flop's clock-to-Q).  These forms are the statistical
``d_ij`` / ``d-bar_ij`` of the paper's constraints (1)–(2) and are later
evaluated per Monte-Carlo sample by :mod:`repro.timing.constraints`.
The array sweep applies the same Clark formulas elementwise and agrees
with the scalar path to well below ``1e-12``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import span as trace_span
from repro.timing.graph import TimingGraph
from repro.variation.arrayforms import clark_max_coeffs
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
def all_ff_pair_delay_forms(
    timing_graph: TimingGraph,
    launch_ffs: Optional[List[str]] = None,
    method: str = "array",
) -> Dict[Tuple[str, str], Tuple[CanonicalForm, CanonicalForm]]:
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

    Returns
    -------
    dict
        ``(launch_ff, capture_ff) -> (max_delay_form, min_delay_form)``.
    """
    design = timing_graph.design
    launch_ffs = launch_ffs if launch_ffs is not None else list(design.netlist.flip_flops)
    if method not in ("array", "scalar"):
        raise ValueError(f"unknown propagation method {method!r}")
    with trace_span("timing.propagate", design=design.name, method=method):
        if method == "array":
            return _all_pairs_array(timing_graph, launch_ffs)
        pairs: Dict[Tuple[str, str], Tuple[CanonicalForm, CanonicalForm]] = {}
        for launch in launch_ffs:
            for capture, forms in ff_pair_delay_forms(timing_graph, launch).items():
                pairs[(launch, capture)] = forms
        return pairs


def _form_row(form: CanonicalForm, width: int, negate: bool = False) -> np.ndarray:
    """One canonical form as a flat coefficient row (optionally negated)."""
    row = np.empty(width)
    sign = -1.0 if negate else 1.0
    row[0] = sign * form.mean
    row[1:-1] = sign * form.sensitivities
    row[-1] = form.independent
    return row


#: Mean assigned to launch rows that have not reached a node yet.  The
#: value is an *absorbing element* of Clark's max in float64: against any
#: real arrival the tightness saturates exactly (``t = 1.0``,
#: ``phi = 0.0``), so ``max(real, absent) == real`` bit for bit and the
#: whole merge needs no masking.  Real arrival means are orders of
#: magnitude smaller, so no confusion is possible.
_ABSENT_MEAN = -1e30


def _extend_block(
    ids: Tuple[int, ...], block: np.ndarray, union: Tuple[int, ...], width: int
) -> np.ndarray:
    """Expand a compact block onto a larger id union with sentinel rows."""
    if ids == union:
        return block
    position = {launch: row for row, launch in enumerate(union)}
    out = np.zeros((2, len(union), width))
    out[:, :, 0] = _ABSENT_MEAN
    out[:, [position[i] for i in ids]] = block
    return out


def _all_pairs_array(
    timing_graph: TimingGraph,
    launch_ffs: List[str],
) -> Dict[Tuple[str, str], Tuple[CanonicalForm, CanonicalForm]]:
    """Level-ordered array sweep carrying all launch flip-flops at once.

    Every reached node holds one compact ``(2, k, width)`` coefficient
    block — plane 0 the max-arrival rows, plane 1 the **negated**
    min-arrival rows — for the ``k`` launch flip-flops whose cone
    contains the node.  Storing the minimum negated turns both
    statistical reductions into Clark-max only (``min(a, b) =
    -max(-a, -b)``, exactly the identity the scalar path uses), and
    launches absent on one side of a merge carry an absorbing sentinel
    row that Clark's saturated formulas pass through bit for bit.

    Nodes are processed **level by level** (longest pred distance from a
    launch), which makes every node of a level independent: the r-th
    predecessor fold of all of them is batched into a *single* Clark
    kernel invocation over the concatenated rows, so the per-call numpy
    overhead is paid per level-round instead of per node.  Blocks are
    freed once every successor has consumed them, bounding live memory
    by the level frontier.
    """
    comb = timing_graph.comb
    names = comb.names
    annotations = timing_graph.annotations
    for launch in launch_ffs:
        if launch not in comb.index:
            raise KeyError(f"unknown launch flip-flop {launch!r}")
    width = timing_graph.design.variation_model.n_shared_sources + 2

    # Nodes share annotations (TimingGraph builds one per nominal delay
    # and region), so each block is built once; no block is written to.
    blocks: Dict[int, np.ndarray] = {}

    def _node_block(ann) -> np.ndarray:
        """One node's (2, 1, width) max/negated-min coefficient block."""
        block = blocks.get(id(ann))
        if block is None:
            block = blocks[id(ann)] = np.empty((2, 1, width))
            block[0, 0] = _form_row(ann.form_max, width)
            block[1, 0] = _form_row(ann.form_min, width, negate=True)
        return block

    # node id -> (sorted launch-index tuple, (2, k, width) coefficient block)
    arrivals: Dict[int, Tuple[Tuple[int, ...], np.ndarray]] = {}
    # Level schedule over the reachable subgraph: a node's level is one
    # past its deepest reached predecessor, so all nodes of a level have
    # every input ready and none feeds another.  -1 marks unreached.
    levels = [-1] * len(names)
    for index, ff in enumerate(launch_ffs):
        launch = comb.index[ff]
        arrivals[launch] = ((index,), _node_block(annotations[launch]))
        levels[launch] = 0
    pred_lists: Dict[int, List[int]] = {}
    schedule: List[List[int]] = []
    topo_position: Dict[int, int] = {}
    for node in comb.order:
        if levels[node] >= 0:
            continue  # launch flip-flop: fixed start, nothing propagates in
        preds = [p for p in comb.fanin[node] if levels[p] >= 0]
        if not preds:
            continue
        depth = 1 + max(levels[p] for p in preds)
        levels[node] = depth
        pred_lists[node] = preds
        while len(schedule) < depth:
            schedule.append([])
        schedule[depth - 1].append(node)
        if isinstance(names[node], tuple):
            topo_position[node] = len(topo_position)

    remaining: Dict[int, int] = {}

    def consume(pred: int) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Fetch a predecessor's block, freeing it after its last use."""
        reached = arrivals[pred]
        left = remaining.get(pred)
        if left is None:
            left = sum(1 for s in comb.fanout[pred] if s in pred_lists)
        if left <= 1:
            del arrivals[pred]
            remaining.pop(pred, None)
        else:
            remaining[pred] = left - 1
        return reached

    captured: Dict[int, Tuple[Tuple[int, ...], np.ndarray]] = {}
    for level_nodes in schedule:
        # Fold round 0: adopt the first predecessor (by reference).
        state: Dict[int, Tuple[Tuple[int, ...], np.ndarray]] = {
            node: consume(pred_lists[node][0]) for node in level_nodes
        }
        # Fold rounds r >= 1: one batched kernel call per round merges
        # the r-th predecessor into every node of the level that has one.
        round_index = 1
        while True:
            active = [node for node in level_nodes if len(pred_lists[node]) > round_index]
            if not active:
                break
            segments: List[Tuple[int, Tuple[int, ...], int]] = []
            rows_a: List[np.ndarray] = []
            rows_b: List[np.ndarray] = []
            offset = 0
            for node in active:
                ids_a, block_a = state[node]
                ids_b, block_b = consume(pred_lists[node][round_index])
                if ids_a == ids_b:
                    union = ids_a
                else:
                    union = tuple(sorted(set(ids_a) | set(ids_b)))
                rows_a.append(_extend_block(ids_a, block_a, union, width).reshape(-1, width))
                rows_b.append(_extend_block(ids_b, block_b, union, width).reshape(-1, width))
                segments.append((node, union, offset))
                offset += 2 * len(union)
            merged = clark_max_coeffs(np.concatenate(rows_a), np.concatenate(rows_b))
            for node, union, start in segments:
                k = len(union)
                state[node] = (union, merged[start : start + 2 * k].reshape(2, k, width))
            round_index += 1

        # Folds done: record captures, add node delays, publish arrivals.
        for node in level_nodes:
            ids, block = state[node]
            if node in topo_position:
                captured[node] = (ids, block)
                continue
            delay = _node_block(annotations[node])
            out = np.empty_like(block)
            out[..., :-1] = block[..., :-1] + delay[..., :-1]
            out[..., -1] = np.hypot(block[..., -1], delay[..., -1])
            arrivals[node] = (ids, out)

    # Emit pairs launch-major, captures in topological discovery order
    # (matches the scalar path's ordering exactly): sort the captured
    # (launch index, capture position) entries.
    entries = sorted(
        (launch, topo_position[node], node, row)
        for node, (ids, _) in captured.items()
        for row, launch in enumerate(ids)
    )
    pairs: Dict[Tuple[str, str], Tuple[CanonicalForm, CanonicalForm]] = {}
    for launch, _, node, row in entries:
        block = captured[node][1]
        max_row = block[0, row]
        min_row = block[1, row]
        pairs[(launch_ffs[launch], names[node][1])] = (
            CanonicalForm(float(max_row[0]), max_row[1:-1].copy(), float(max_row[-1])),
            CanonicalForm(float(-min_row[0]), -min_row[1:-1], float(min_row[-1])),
        )
    return pairs
