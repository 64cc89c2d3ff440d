"""Tests for repro.circuit.library."""

import pytest

from repro.circuit.cells import Cell, CellKind
from repro.circuit.library import CellLibrary


class TestDefaultLibrary:
    def test_contains_basic_cells(self, library):
        for name in ("INV", "NAND2", "NOR2", "XOR2", "DFF", "BUF"):
            assert name in library

    def test_dff_has_sequential_timing(self, library):
        dff = library.get("DFF")
        assert dff.is_sequential
        assert dff.ff_timing.setup > 0

    def test_lookup_unknown_raises_helpfully(self, library):
        with pytest.raises(KeyError, match="NAND17"):
            library.get("NAND17")

    def test_combinational_vs_flip_flop_partition(self, library):
        comb = library.combinational_cells()
        ffs = library.flip_flop_cells()
        assert len(ffs) == 1
        assert all(not c.is_sequential for c in comb)

    def test_by_function(self, library):
        assert library.by_function("nand").function == "NAND"
        assert library.by_function("NOPE") is None

    def test_cells_with_inputs(self, library):
        two_input = library.cells_with_inputs(2)
        assert all(c.n_inputs == 2 for c in two_input)
        assert len(two_input) >= 4

    def test_len_and_iter(self, library):
        assert len(list(library)) == len(library)


class TestCellLibrary:
    def test_duplicate_add_rejected(self):
        lib = CellLibrary("x")
        cell = Cell("A", CellKind.COMBINATIONAL, 1, delay=1.0)
        lib.add(cell)
        with pytest.raises(ValueError):
            lib.add(cell)
