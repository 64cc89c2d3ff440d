"""Annotated timing graph.

:class:`TimingGraph` annotates the combinational graph of a design's
netlist (:meth:`repro.circuit.netlist.Netlist.combinational_graph`:
integer node ids, flip-flops split into a launch node and a capture
node) with one :class:`DelayAnnotation` per node:

* nominal maximum (propagation) and minimum (contamination) delay,
* canonical statistical forms of both, built from the design's variation
  model and the instance's placement location.

Flip-flop launch nodes carry the clock-to-Q delay, capture nodes carry zero
delay (setup/hold enter through the constraint graph, not the timing
graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.circuit.design import CircuitDesign
from repro.circuit.netlist import CombinationalGraph, InstanceKind
from repro.variation.canonical import CanonicalForm


@dataclass
class DelayAnnotation:
    """Nominal and statistical delay of one timing-graph node."""

    nominal_max: float
    nominal_min: float
    form_max: CanonicalForm
    form_min: CanonicalForm


class TimingGraph:
    """Combinational timing graph of a :class:`~repro.circuit.design.CircuitDesign`.

    Nodes
    -----
    * primary-input names (zero delay launch points),
    * gate names (annotated with the gate's delay),
    * flip-flop names (launch nodes, annotated with clock-to-Q),
    * ``("sink", ff_name)`` tuples (capture nodes, zero delay),
    * primary-output names (zero delay sinks).

    ``comb`` is the netlist's
    :class:`~repro.circuit.netlist.CombinationalGraph` and ``annotations``
    holds one annotation per node id.  Nodes with the same nominal delays
    in the same variation region share one (read-only) annotation.
    """

    def __init__(self, design: CircuitDesign) -> None:
        self.design = design
        self.comb: CombinationalGraph = design.netlist.combinational_graph()
        self._forms: Dict[Tuple[float, int], CanonicalForm] = {}
        self.annotations: List[DelayAnnotation] = self._annotate()

    # ------------------------------------------------------------------
    def _annotate(self) -> List[DelayAnnotation]:
        netlist = self.design.netlist
        library = self.design.library
        variation = self.design.variation_model
        locations = self.design.placement.locations
        zero_form = variation.constant_form(0.0)
        zero = DelayAnnotation(0.0, 0.0, zero_form, zero_form)

        shared: Dict[Tuple[float, float, int], DelayAnnotation] = {}
        annotations: List[DelayAnnotation] = []
        for node in self.comb.names:
            if isinstance(node, tuple):
                # Flip-flop capture node: no delay of its own.
                annotations.append(zero)
                continue
            inst = netlist.instance(node)
            if inst.kind in (InstanceKind.PRIMARY_INPUT, InstanceKind.PRIMARY_OUTPUT):
                annotations.append(zero)
                continue
            cell = library.get(inst.cell)
            if inst.is_flip_flop:
                nominal_max = cell.ff_timing.clk_to_q
                nominal_min = cell.ff_timing.clk_to_q * 0.8
            else:
                nominal_max = cell.delay
                nominal_min = cell.contamination_delay
            region = variation.region_at(*locations.get(node, (None, None)))
            key = (nominal_max, nominal_min, region)
            if key not in shared:
                shared[key] = DelayAnnotation(
                    nominal_max,
                    nominal_min,
                    self._form(nominal_max, node),
                    self._form(nominal_min, node),
                )
            annotations.append(shared[key])
        return annotations

    def _form(self, nominal: float, name: str) -> CanonicalForm:
        """Canonical form of delay ``nominal`` at instance ``name``'s location,
        built once per (nominal delay, variation region) and shared."""
        variation = self.design.variation_model
        x, y = self.design.placement.locations.get(name, (None, None))
        key = (nominal, variation.region_at(x, y))
        form = self._forms.get(key)
        if form is None:
            form = self._forms[key] = variation.delay_form(nominal, x, y).form
        return form

    # ------------------------------------------------------------------
    def annotation(self, node: Hashable) -> DelayAnnotation:
        """Delay annotation of a node."""
        return self.annotations[self.comb.index[node]]

    @property
    def topological_order(self) -> List[Hashable]:
        """Topological order of the timing graph (node names), built on
        each access from the netlist graph's order of node ids."""
        names = self.comb.names
        return [names[node] for node in self.comb.order]

    def launch_nodes(self) -> List[str]:
        """Timing start points: primary inputs and flip-flop launch nodes."""
        netlist = self.design.netlist
        return list(netlist.primary_inputs) + list(netlist.flip_flops)

    def setup_form(self, ff: str) -> CanonicalForm:
        """Canonical form of the setup time of flip-flop ``ff``."""
        cell = self.design.library.get(self.design.netlist.instance(ff).cell)
        return self._form(cell.ff_timing.setup, ff)

    def hold_form(self, ff: str) -> CanonicalForm:
        """Canonical form of the hold time of flip-flop ``ff``."""
        cell = self.design.library.get(self.design.netlist.instance(ff).cell)
        return self._form(cell.ff_timing.hold, ff)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_edges = sum(len(drivers) for drivers in self.comb.fanin)
        return f"TimingGraph({self.design.name!r}, nodes={len(self.comb.names)}, edges={n_edges})"
