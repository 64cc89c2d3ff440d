"""Cell library.

The paper maps the benchmark circuits to a library from an industry partner
which is not redistributable.  :func:`default_library` provides a small but
realistic replacement: a set of standard combinational cells with staggered
nominal delays, a clock buffer and a D flip-flop.  Nominal delays are in
library time units (think ~10 ps per unit at a submicron node); the exact
values only shift the clock-period scale, not the structure of the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.circuit.cells import Cell, CellKind, FlipFlopTiming


@dataclass
class CellLibrary:
    """A named collection of :class:`~repro.circuit.cells.Cell` objects."""

    name: str
    cells: Dict[str, Cell] = field(default_factory=dict)

    def add(self, cell: Cell) -> None:
        """Add a cell; raises ``ValueError`` on duplicate names."""
        if cell.name in self.cells:
            raise ValueError(f"cell {cell.name!r} already exists in library {self.name!r}")
        self.cells[cell.name] = cell

    def get(self, name: str) -> Cell:
        """Look up a cell by name; raises ``KeyError`` with a helpful message."""
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} not found in library {self.name!r}; "
                f"available: {sorted(self.cells)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    # ------------------------------------------------------------------
    def combinational_cells(self) -> List[Cell]:
        """All combinational (non-FF, non-buffer) cells."""
        return [c for c in self.cells.values() if c.kind is CellKind.COMBINATIONAL]

    def flip_flop_cells(self) -> List[Cell]:
        """All flip-flop cells."""
        return [c for c in self.cells.values() if c.kind is CellKind.FLIP_FLOP]

    def by_function(self, function: str) -> Optional[Cell]:
        """Return the first cell implementing ``function`` (case-insensitive)."""
        function = function.upper()
        for cell in self.cells.values():
            if cell.function.upper() == function:
                return cell
        return None

    def cells_with_inputs(self, n_inputs: int) -> List[Cell]:
        """Combinational cells with exactly ``n_inputs`` inputs."""
        return [c for c in self.combinational_cells() if c.n_inputs == n_inputs]


def default_library(name: str = "repro_generic_45nm") -> CellLibrary:
    """Build the default generic library used throughout the reproduction.

    The library contains inverters, 2/3/4-input NAND/NOR/AND/OR gates, a
    2-input XOR/XNOR, a 2:1 MUX, buffers and a single D flip-flop.  Delay
    ratios between the cells follow typical standard-cell libraries.
    """
    lib = CellLibrary(name=name)
    ff_timing = FlipFlopTiming(setup=2.0, hold=1.0, clk_to_q=2.5)

    combinational = [
        # name,     function, inputs, delay, min_delay, area
        ("INV",     "NOT",    1, 1.0, 0.6, 1.0),
        ("BUF",     "BUF",    1, 1.4, 0.9, 1.2),
        ("NAND2",   "NAND",   2, 1.6, 1.0, 1.4),
        ("NAND3",   "NAND",   3, 2.0, 1.2, 1.8),
        ("NAND4",   "NAND",   4, 2.5, 1.5, 2.2),
        ("NOR2",    "NOR",    2, 1.8, 1.1, 1.4),
        ("NOR3",    "NOR",    3, 2.3, 1.4, 1.8),
        ("NOR4",    "NOR",    4, 2.9, 1.7, 2.2),
        ("AND2",    "AND",    2, 2.0, 1.2, 1.6),
        ("AND3",    "AND",    3, 2.4, 1.5, 2.0),
        ("OR2",     "OR",     2, 2.1, 1.3, 1.6),
        ("OR3",     "OR",     3, 2.6, 1.6, 2.0),
        ("XOR2",    "XOR",    2, 2.8, 1.7, 2.6),
        ("XNOR2",   "XNOR",   2, 2.9, 1.8, 2.6),
        ("MUX2",    "MUX",    3, 2.6, 1.6, 2.4),
        ("AOI21",   "AOI",    3, 2.2, 1.3, 2.0),
        ("OAI21",   "OAI",    3, 2.2, 1.3, 2.0),
    ]
    for cname, func, n_in, delay, min_delay, area in combinational:
        lib.add(
            Cell(
                name=cname,
                kind=CellKind.BUFFER if func == "BUF" else CellKind.COMBINATIONAL,
                n_inputs=n_in,
                delay=delay,
                min_delay=min_delay,
                area=area,
                function=func,
            )
        )

    lib.add(
        Cell(
            name="DFF",
            kind=CellKind.FLIP_FLOP,
            n_inputs=1,
            delay=ff_timing.clk_to_q,
            min_delay=ff_timing.clk_to_q * 0.7,
            area=4.0,
            function="DFF",
            ff_timing=ff_timing,
        )
    )
    return lib
