"""Gate-level netlist data model.

A :class:`Netlist` is a collection of named :class:`Instance` objects
(primary inputs, primary outputs, combinational gates and flip-flops)
connected by name.  Signals and instance outputs are identified: every
instance drives exactly one signal whose name equals the instance name,
which matches the ISCAS89 ``.bench`` convention and keeps the data model
small.

Its combinational logic is one :class:`CombinationalGraph` on integer
node ids, built on first use and dropped by every mutator.

Sequential loops (feedback through flip-flops) are legal; combinational
loops are not and are rejected by :meth:`Netlist.validate`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence


class InstanceKind(enum.Enum):
    """Role of an instance in the netlist."""

    PRIMARY_INPUT = "primary_input"
    PRIMARY_OUTPUT = "primary_output"
    GATE = "gate"
    FLIP_FLOP = "flip_flop"


@dataclass
class Instance:
    """One netlist instance.

    Attributes
    ----------
    name:
        Unique instance (and output signal) name.
    kind:
        Role of the instance.
    cell:
        Library cell name (``None`` for primary inputs/outputs).
    fanins:
        Names of the instances driving this instance's inputs, in pin order.
        For a flip-flop the single fan-in is its ``D`` input.
    """

    name: str
    kind: InstanceKind
    cell: Optional[str] = None
    fanins: List[str] = field(default_factory=list)

    @property
    def is_flip_flop(self) -> bool:
        """Whether this instance is a flip-flop."""
        return self.kind is InstanceKind.FLIP_FLOP

    @property
    def is_gate(self) -> bool:
        """Whether this instance is a combinational gate."""
        return self.kind is InstanceKind.GATE


@dataclass(frozen=True)
class CombinationalGraph:
    """The combinational logic of a netlist on integer node ids.

    Each flip-flop ``f`` is split into two nodes: ``f`` acting as a source
    (its ``Q`` output launching into the combinational logic) and
    ``("sink", f)`` acting as a sink (its ``D`` input).  Every other
    instance is one node named like the instance.

    The orders below follow from the instance and pin orders alone and
    equal those of a general digraph built instance by instance, edge by
    edge; they fix the Clark sweep's fold order and the placement order.
    The lists are shared and read-only.

    Attributes
    ----------
    names:
        Node id -> node name.  Ids run in instance order, with each
        flip-flop's sink right after it.
    index:
        Node name -> node id.
    fanin:
        Per node, the ids of its drivers: the instance's fan-ins in pin
        order, repeats dropped.
    fanout:
        Per node, the ids of the nodes it drives, in edge-insertion order
        (target instance order, then pin order).
    order:
        Topological order of all node ids, generation by generation as
        in Kahn's algorithm: first the nodes without drivers in id order,
        then each next generation in the order its nodes lose their last
        unvisited driver.
    """

    names: List[Hashable]
    index: Dict[Hashable, int]
    fanin: List[List[int]]
    fanout: List[List[int]]
    order: List[int]

    @classmethod
    def build(cls, instances: Dict[str, Instance]) -> CombinationalGraph:
        """Build the graph of ``instances``; ``ValueError`` on a cycle.

        Every fan-in must name an instance (``KeyError`` otherwise).
        """
        names: List[Hashable] = []
        index: Dict[Hashable, int] = {}
        for inst in instances.values():
            index[inst.name] = len(names)
            names.append(inst.name)
            if inst.is_flip_flop:
                sink = ("sink", inst.name)
                index[sink] = len(names)
                names.append(sink)
        fanin: List[List[int]] = [[] for _ in names]
        fanout: List[List[int]] = [[] for _ in names]
        for inst in instances.values():
            target = index[inst.name] + 1 if inst.is_flip_flop else index[inst.name]
            drivers = fanin[target]
            for src in inst.fanins:
                source = index[src]
                if source not in drivers:
                    drivers.append(source)
                    fanout[source].append(target)

        remaining = [len(drivers) for drivers in fanin]
        generation = [node for node, count in enumerate(remaining) if not count]
        order: List[int] = []
        while generation:
            order.extend(generation)
            following: List[int] = []
            for node in generation:
                for succ in fanout[node]:
                    remaining[succ] -= 1
                    if not remaining[succ]:
                        following.append(succ)
            generation = following
        if len(order) < len(names):
            # Each unordered node keeps an unordered driver, so walking
            # drivers back repeats a node, and that node is on a cycle.
            node = next(n for n, count in enumerate(remaining) if count)
            seen = set()
            while node not in seen:
                seen.add(node)
                node = next(d for d in fanin[node] if remaining[d])
            raise ValueError(f"combinational cycle detected through {names[node]!r}")
        return cls(names=names, index=index, fanin=fanin, fanout=fanout, order=order)


class Netlist:
    """A named gate-level netlist.

    Mutate it through its methods only: they drop the cached
    :meth:`combinational_graph`, which direct edits of
    :attr:`Instance.fanins` would leave stale.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._instances: Dict[str, Instance] = {}
        self._graph: Optional[CombinationalGraph] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, instance: Instance) -> Instance:
        if instance.name in self._instances:
            raise ValueError(f"instance {instance.name!r} already exists in netlist {self.name!r}")
        self._instances[instance.name] = instance
        self._graph = None
        return instance

    def add_primary_input(self, name: str) -> Instance:
        """Add a primary input."""
        return self._add(Instance(name, InstanceKind.PRIMARY_INPUT))

    def add_primary_output(self, name: str, driver: Optional[str] = None) -> Instance:
        """Add a primary output; ``driver`` is the signal observed at the port."""
        fanins = [driver] if driver is not None else []
        return self._add(Instance(name, InstanceKind.PRIMARY_OUTPUT, fanins=fanins))

    def add_gate(self, name: str, cell: str, fanins: Sequence[str]) -> Instance:
        """Add a combinational gate instance of library cell ``cell``."""
        return self._add(Instance(name, InstanceKind.GATE, cell=cell, fanins=list(fanins)))

    def add_flip_flop(self, name: str, cell: str = "DFF", data_input: Optional[str] = None) -> Instance:
        """Add a flip-flop; its single fan-in (``D`` input) may be set later."""
        fanins = [data_input] if data_input is not None else []
        return self._add(Instance(name, InstanceKind.FLIP_FLOP, cell=cell, fanins=fanins))

    def set_flip_flop_input(self, name: str, data_input: str) -> None:
        """Connect (or reconnect) the ``D`` input of flip-flop ``name``."""
        inst = self.instance(name)
        if not inst.is_flip_flop:
            raise ValueError(f"{name!r} is not a flip-flop")
        inst.fanins = [data_input]
        self._graph = None

    def set_output_driver(self, name: str, driver: str) -> None:
        """Connect (or reconnect) the driver of primary output ``name``."""
        inst = self.instance(name)
        if inst.kind is not InstanceKind.PRIMARY_OUTPUT:
            raise ValueError(f"{name!r} is not a primary output")
        inst.fanins = [driver]
        self._graph = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def instance(self, name: str) -> Instance:
        """Look up an instance by name."""
        try:
            return self._instances[name]
        except KeyError:
            raise KeyError(f"instance {name!r} not found in netlist {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    @property
    def instances(self) -> Dict[str, Instance]:
        """All instances keyed by name (insertion order preserved)."""
        return self._instances

    def _names_of(self, kind: InstanceKind) -> List[str]:
        return [inst.name for inst in self._instances.values() if inst.kind is kind]

    @property
    def primary_inputs(self) -> List[str]:
        """Names of the primary inputs."""
        return self._names_of(InstanceKind.PRIMARY_INPUT)

    @property
    def primary_outputs(self) -> List[str]:
        """Names of the primary outputs."""
        return self._names_of(InstanceKind.PRIMARY_OUTPUT)

    @property
    def flip_flops(self) -> List[str]:
        """Names of the flip-flops."""
        return self._names_of(InstanceKind.FLIP_FLOP)

    @property
    def gates(self) -> List[str]:
        """Names of the combinational gates."""
        return self._names_of(InstanceKind.GATE)

    @property
    def n_flip_flops(self) -> int:
        """Number of flip-flops (``ns`` in the paper's Table I)."""
        return len(self.flip_flops)

    @property
    def n_gates(self) -> int:
        """Number of combinational gates (``ng`` in the paper's Table I)."""
        return len(self.gates)

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def combinational_graph(self) -> CombinationalGraph:
        """The combinational graph on integer ids (built once, then cached).

        Raises ``KeyError`` on a fan-in that names no instance and
        ``ValueError`` on a combinational cycle; :meth:`validate` reports
        the former as ``ValueError`` first.
        """
        if self._graph is None:
            self._graph = CombinationalGraph.build(self._instances)
        return self._graph

    # ------------------------------------------------------------------
    # Validation & statistics
    # ------------------------------------------------------------------
    def validate(self, library=None, strict_arity: bool = False) -> None:
        """Check structural consistency.

        Raises ``ValueError`` on dangling references, gates without fan-ins,
        flip-flops without a connected ``D`` input, or combinational cycles.
        When ``library`` is given, unknown cells are reported; with
        ``strict_arity=True`` gate fan-in counts must match the cell.
        """
        for inst in self._instances.values():
            for src in inst.fanins:
                if src not in self._instances:
                    raise ValueError(
                        f"instance {inst.name!r} references unknown fan-in {src!r}"
                    )
            if inst.is_gate and not inst.fanins:
                raise ValueError(f"gate {inst.name!r} has no fan-ins")
            if inst.is_flip_flop and not inst.fanins:
                raise ValueError(f"flip-flop {inst.name!r} has no D input connected")
            if library is not None and inst.cell is not None:
                cell = library.get(inst.cell)
                if strict_arity and inst.is_gate and len(inst.fanins) != cell.n_inputs:
                    raise ValueError(
                        f"gate {inst.name!r}: cell {cell.name} expects {cell.n_inputs} "
                        f"inputs, got {len(inst.fanins)}"
                    )
        # Building the graph (or finding it built) is the cycle check.
        self.combinational_graph()

    def stats(self) -> Dict[str, int]:
        """Basic size statistics (counts per instance kind)."""
        return {
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
            "flip_flops": self.n_flip_flops,
            "gates": self.n_gates,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Netlist({self.name!r}, ffs={s['flip_flops']}, gates={s['gates']}, "
            f"pis={s['primary_inputs']}, pos={s['primary_outputs']})"
        )
