"""Pinned digests of the suite designs.

Each digest covers everything a design build decides: the netlist rows
(name, kind, cell, fan-ins in pin order), the placement and the compiled
constraint system's fingerprint (which covers the statistical delay
forms the Clark sweep produced).  The suite digests were computed
before the netlist's graph moved from networkx to integer ids, and the
digests of perfbench's own designs before the sweep moved to flat row
tables; any change to the generator's draws, the placement order or the
sweep's fold order moves them.
"""

import hashlib
import json

import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core.compiled import ensure_compiled_system

SCALE = 0.05
SEED = 1

DIGESTS = {
    "s9234": "521a95719d3eb8f3a61c45d506637d23250ce577a1d103c1f79da16e95b837ef",
    "s13207": "d453ce77c5facb288510a92227fc2a500680026a74cd3b32b6663b709e3a9d0e",
    "s15850": "ba209d4cc77fa0174b75082f90d41fba678977baa9bd0a8e762f6391a327686c",
    "s38584": "6350985094c3b218ed34d7cce43c8f522c58f41503b3c75116f1ff2191eb08f9",
    "mem_ctrl": "4b82b13d05cce55b8f79b3b1b657e4d92449c7377b026da4e9ae0500821b3bde",
    "usb_funct": "93993dfa135c0e219e613f53da35eb8523832210b0202e2f7caa5d9aeaa6286a",
    "ac97_ctrl": "c1d589d6850e5a88d0cac97dd15893e3efb2176ec98c4c71e9ffc9bf03ec2431",
    "pci_bridge32": "4aef1c57b42271e9c29cf22fa63ac69ab2c7cbdbac17dc24af6843d181f1f318",
}

#: The designs of perfbench's workloads, ``(circuit, scale, design seed)``:
#: flow_tight, flow_large (full size, about 2 s to build) and campaign_gang.
BENCHMARK_DIGESTS = {
    ("s13207", 0.3, 5): "1d48198008093512ecad2bc84a7c55deaba4e0eb3f81129c565b58331c3fb358",
    ("s38584", 1.0, 2): "be7859ce3f11ca46a41c01791ebd0384e341393c4598b28291349c07f04e2b72",
    ("s9234", 0.2, 1): "6acf37178618cdc585ab954f1e0ca60b19efe94889b8e0371b7b27cdb8cf4122",
}


def design_digest(design) -> str:
    """SHA-256 of the netlist rows, the placement and the compiled fingerprint."""
    placement = design.placement
    payload = {
        "netlist": [
            [inst.name, inst.kind.value, inst.cell, list(inst.fanins)]
            for inst in design.netlist.instances.values()
        ],
        "placement": [[name, x, y] for name, (x, y) in placement.locations.items()],
        "die": [placement.die_width, placement.die_height, placement.row_pitch],
        "compiled": ensure_compiled_system(design).fingerprint(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("circuit", sorted(DIGESTS))
def test_suite_design_is_unchanged(circuit):
    design = build_suite_circuit(circuit, scale=SCALE, seed=SEED)
    assert design_digest(design) == DIGESTS[circuit]


@pytest.mark.parametrize("circuit,scale,seed", list(BENCHMARK_DIGESTS))
def test_benchmark_design_is_unchanged(circuit, scale, seed):
    design = build_suite_circuit(circuit, scale=scale, seed=seed)
    assert design_digest(design) == BENCHMARK_DIGESTS[(circuit, scale, seed)]
