"""Tests for the ISCAS89 .bench reader / writer."""

import pytest

from repro.circuit.bench import (
    BenchParseError,
    parse_bench,
    write_bench,
)

EXAMPLE = """
# small sequential example in ISCAS89 style
INPUT(G0)
INPUT(G1)
OUTPUT(G17)

G10 = DFF(G14)
G11 = NAND(G0, G10)
G14 = NOT(G11)
G17 = AND(G14, G1, G10)
"""


class TestParse:
    def test_counts(self):
        netlist = parse_bench(EXAMPLE, name="ex")
        assert netlist.n_flip_flops == 1
        assert netlist.n_gates == 3
        assert netlist.primary_inputs == ["G0", "G1"]
        assert len(netlist.primary_outputs) == 1

    def test_output_wrapper_driver(self):
        netlist = parse_bench(EXAMPLE)
        po = netlist.instance(netlist.primary_outputs[0])
        assert po.fanins == ["G17"]

    def test_cell_mapping_by_arity(self, library):
        netlist = parse_bench(EXAMPLE, library=library)
        assert netlist.instance("G11").cell == "NAND2"
        assert netlist.instance("G14").cell == "INV"
        assert netlist.instance("G17").cell == "AND3"

    def test_arity_fallback_to_largest(self, library):
        text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(g)\ng = NAND(a, b, c, d, e)\n"
        netlist = parse_bench(text, library=library)
        assert netlist.instance("g").cell == "NAND4"

    def test_unknown_function_rejected(self):
        with pytest.raises(BenchParseError, match="FOO"):
            parse_bench("INPUT(a)\nOUTPUT(b)\nb = FOO(a)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(BenchParseError):
            parse_bench("this is not bench\n")

    def test_dff_with_two_inputs_rejected(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n")

    def test_comments_and_blank_lines_ignored(self):
        netlist = parse_bench("# only comments\n\n# more\nINPUT(a)\nOUTPUT(a)\n")
        assert netlist.primary_inputs == ["a"]


class TestRoundTrip:
    def test_write_then_parse_preserves_structure(self, library):
        original = parse_bench(EXAMPLE, library=library)
        text = write_bench(original, library=library)
        parsed = parse_bench(text, library=library)
        assert parsed.stats() == original.stats()
        assert set(parsed.flip_flops) == set(original.flip_flops)

    def test_generated_circuit_round_trip(self, tiny_netlist, library):
        text = write_bench(tiny_netlist, library=library)
        parsed = parse_bench(text, library=library)
        assert parsed.n_flip_flops == tiny_netlist.n_flip_flops
        assert parsed.n_gates == tiny_netlist.n_gates
