"""ISCAS89 ``.bench`` format reader and writer.

The ISCAS89 benchmark circuits the paper evaluates are distributed in the
``.bench`` format::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G11 = NAND(G0, G10)
    G14 = NOT(G11)

The reader maps each ``.bench`` function to a cell of the target library by
function name and arity (falling back to the closest arity when the exact
one is missing, e.g. a 5-input NAND is mapped to ``NAND4``).  The writer
produces files that round-trip through the reader.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.circuit.library import CellLibrary, default_library
from repro.circuit.netlist import Netlist

_LINE_RE = re.compile(r"^\s*(?P<out>[\w\.\[\]\$]+)\s*=\s*(?P<func>\w+)\s*\((?P<args>[^)]*)\)\s*$")
_PORT_RE = re.compile(r"^\s*(?P<kind>INPUT|OUTPUT)\s*\((?P<name>[\w\.\[\]\$]+)\)\s*$", re.IGNORECASE)

#: ``.bench`` function name -> canonical library function tag.
_FUNCTION_ALIASES = {
    "NOT": "NOT",
    "INV": "NOT",
    "BUF": "BUF",
    "BUFF": "BUF",
    "AND": "AND",
    "NAND": "NAND",
    "OR": "OR",
    "NOR": "NOR",
    "XOR": "XOR",
    "XNOR": "XNOR",
    "MUX": "MUX",
    "AOI": "AOI",
    "OAI": "OAI",
    "DFF": "DFF",
}


class BenchParseError(ValueError):
    """Raised when a ``.bench`` file cannot be parsed."""


def _select_cell(library: CellLibrary, function: str, arity: int) -> str:
    """Pick the library cell implementing ``function`` with the closest arity."""
    candidates = [
        c for c in library if c.function.upper() == function.upper()
    ]
    if not candidates:
        raise BenchParseError(
            f"library {library.name!r} has no cell for function {function!r}"
        )
    exact = [c for c in candidates if c.n_inputs == arity]
    if exact:
        return exact[0].name
    # Fall back to the largest cell not exceeding the arity, else the largest.
    candidates.sort(key=lambda c: c.n_inputs)
    not_exceeding = [c for c in candidates if c.n_inputs <= arity]
    chosen = not_exceeding[-1] if not_exceeding else candidates[-1]
    return chosen.name


def parse_bench(
    text: str,
    name: str = "bench",
    library: Optional[CellLibrary] = None,
) -> Netlist:
    """Parse ``.bench`` text into a :class:`~repro.circuit.netlist.Netlist`.

    Output ports are materialised as ``<signal>__po`` primary-output
    instances so that a signal may simultaneously feed logic and a port.
    """
    library = library or default_library()
    netlist = Netlist(name=name)
    pending_outputs: List[str] = []
    definitions: List[Tuple[str, str, List[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        port = _PORT_RE.match(line)
        if port:
            kind = port.group("kind").upper()
            signal = port.group("name")
            if kind == "INPUT":
                netlist.add_primary_input(signal)
            else:
                pending_outputs.append(signal)
            continue
        assign = _LINE_RE.match(line)
        if assign:
            out = assign.group("out")
            func = assign.group("func").upper()
            args = [a.strip() for a in assign.group("args").split(",") if a.strip()]
            if func not in _FUNCTION_ALIASES:
                raise BenchParseError(f"line {lineno}: unknown function {func!r}")
            definitions.append((out, _FUNCTION_ALIASES[func], args))
            continue
        raise BenchParseError(f"line {lineno}: cannot parse {raw!r}")

    # Create instances (two passes: declare, then fan-ins are validated later).
    for out, func, args in definitions:
        if func == "DFF":
            if len(args) != 1:
                raise BenchParseError(f"flip-flop {out!r} must have exactly one input")
            netlist.add_flip_flop(out, cell="DFF", data_input=args[0])
        else:
            cell = _select_cell(library, func, len(args))
            netlist.add_gate(out, cell=cell, fanins=args)

    for signal in pending_outputs:
        netlist.add_primary_output(f"{signal}__po", driver=signal)

    netlist.validate(library=library, strict_arity=False)
    return netlist


def write_bench(netlist: Netlist, library: Optional[CellLibrary] = None) -> str:
    """Serialise a netlist back to ``.bench`` text.

    Gate cells are written using their library function tag; primary-output
    wrapper instances (``*__po``) are written as ``OUTPUT(<driver>)``.
    """
    library = library or default_library()
    lines: List[str] = [f"# netlist {netlist.name}"]
    for pi in netlist.primary_inputs:
        lines.append(f"INPUT({pi})")
    for po in netlist.primary_outputs:
        inst = netlist.instance(po)
        driver = inst.fanins[0] if inst.fanins else po
        lines.append(f"OUTPUT({driver})")
    for name_ in netlist.flip_flops:
        inst = netlist.instance(name_)
        lines.append(f"{name_} = DFF({inst.fanins[0]})")
    for name_ in netlist.gates:
        inst = netlist.instance(name_)
        func = library.get(inst.cell).function if inst.cell in library else inst.cell
        func = {"NOT": "NOT", "BUF": "BUFF"}.get(func, func)
        lines.append(f"{name_} = {func}({', '.join(inst.fanins)})")
    return "\n".join(lines) + "\n"
