"""The :class:`CircuitDesign` bundle.

Timing analysis and the buffer-insertion flow need more than a netlist:
they also need the cell library, the placement (for buffer grouping and
spatial variation), the static clock skews and the variation model.
:class:`CircuitDesign` groups these into a single object with a convenience
factory that fills in sensible defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.circuit.clockskew import ClockSkewMap, random_clock_skews
from repro.circuit.library import CellLibrary, default_library
from repro.circuit.netlist import Netlist
from repro.circuit.placement import Placement, grid_placement
from repro.utils.rng import RngLike, ensure_rng
from repro.variation.model import VariationModel


@dataclass
class CircuitDesign:
    """A complete design: netlist + library + placement + clocking + variation.

    Attributes
    ----------
    netlist:
        The gate-level netlist.
    library:
        The cell library the netlist is mapped to.
    placement:
        Physical locations of the instances.
    clock_skew:
        Static clock arrival offsets of the flip-flops.
    variation_model:
        Process-variation model matched to the placement's die size.
    name:
        Design name (defaults to the netlist name).
    """

    netlist: Netlist
    library: CellLibrary
    placement: Placement
    clock_skew: ClockSkewMap
    variation_model: VariationModel
    name: str = ""
    #: Optional cache slot for the design's sequential constraint graph
    #: (populated by :func:`repro.timing.constraints.ensure_constraint_graph`
    #: and by the suite builder; typed loosely to avoid a circular import).
    cached_constraint_graph: Optional[object] = field(default=None, repr=False, compare=False)
    #: Optional cache slot for the design's compiled constraint system
    #: (populated by :func:`repro.core.compiled.ensure_compiled_system`,
    #: cleared by :func:`repro.timing.skew.apply_skews`).
    cached_compiled_system: Optional[object] = field(default=None, repr=False, compare=False)
    #: Optional cache slot for :meth:`min_ff_pitch`, a design constant.
    cached_min_ff_pitch: Optional[float] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.netlist.name

    # ------------------------------------------------------------------
    @classmethod
    def from_netlist(
        cls,
        netlist: Netlist,
        library: Optional[CellLibrary] = None,
        clock_skew_magnitude: float = 0.0,
        grid_rows: int = 4,
        grid_cols: int = 4,
        rng: RngLike = None,
        placement: Optional[Placement] = None,
    ) -> "CircuitDesign":
        """Build a design around ``netlist`` with default physical data.

        Parameters
        ----------
        clock_skew_magnitude:
            Half-width of the random static skew assigned to each flip-flop
            (0 disables skew injection).
        grid_rows, grid_cols:
            Spatial-correlation grid of the variation model.
        """
        generator = ensure_rng(rng)
        library = library or default_library()
        netlist.validate(library=library)
        placement = placement or grid_placement(netlist, rng=generator)
        if clock_skew_magnitude > 0.0:
            skew = random_clock_skews(netlist.flip_flops, clock_skew_magnitude, rng=generator)
        else:
            skew = ClockSkewMap.zero(netlist.flip_flops)
        variation = VariationModel(
            die_width=placement.die_width,
            die_height=placement.die_height,
            grid_rows=grid_rows,
            grid_cols=grid_cols,
        )
        return cls(
            netlist=netlist,
            library=library,
            placement=placement,
            clock_skew=skew,
            variation_model=variation,
            name=netlist.name,
        )

    # ------------------------------------------------------------------
    @property
    def flip_flops(self) -> Tuple[str, ...]:
        """Flip-flop names of the design."""
        return tuple(self.netlist.flip_flops)

    def ff_locations(self) -> Dict[str, Tuple[float, float]]:
        """Placement locations of all flip-flops."""
        return {ff: self.placement.location(ff) for ff in self.netlist.flip_flops}

    def min_ff_pitch(self) -> float:
        """Minimum Manhattan distance between two flip-flops (computed once)."""
        if self.cached_min_ff_pitch is None:
            self.cached_min_ff_pitch = self.placement.min_flip_flop_pitch(
                self.netlist.flip_flops
            )
        return self.cached_min_ff_pitch

    def summary(self) -> Dict[str, float]:
        """Size and physical summary used in reports."""
        stats = self.netlist.stats()
        return {
            "name": self.name,
            "flip_flops": stats["flip_flops"],
            "gates": stats["gates"],
            "primary_inputs": stats["primary_inputs"],
            "primary_outputs": stats["primary_outputs"],
            "die_width": self.placement.die_width,
            "die_height": self.placement.die_height,
            "max_abs_clock_skew": self.clock_skew.max_abs_skew(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.netlist.stats()
        return (
            f"CircuitDesign({self.name!r}, ffs={stats['flip_flops']}, "
            f"gates={stats['gates']})"
        )
