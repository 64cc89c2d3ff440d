"""Pinned digests of the suite designs.

Each digest covers everything a design build decides: the netlist rows
(name, kind, cell, fan-ins in pin order), the placement and the compiled
constraint system's fingerprint (which covers the statistical delay
forms the Clark sweep produced).  They were last re-pinned when the
sweep's ``erf`` became :func:`math.erf` on every install and its first
arrivals became copies; any change to the generator's draws, the
placement order or the sweep's fold order moves them.  A numpy-only
install builds the same designs (``tests/integration/test_numpy_only.py``).
"""

import hashlib
import json

import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core.compiled import ensure_compiled_system

SCALE = 0.05
SEED = 1

DIGESTS = {
    "s9234": "4788cca82de07502c6bd4a9d070cf7e1e639fd77c13962ab211869c569ad1fe2",
    "s13207": "37b016d4bb0f1cf54e799beb17cb487eb0dfa7432c7c609fcbd9b1a10cbebf48",
    "s15850": "4c69ce752affc1fb7cff4886bbacef413356553d9b2a0aa7288574ee2a4a6a30",
    "s38584": "87ee10ce58e18f4ef2ac6c879f7b2896f4ad39041fcf22599b5fa60763624ec1",
    "mem_ctrl": "38c7f5be8f24db967a7c617a8c87dbeb2769dfb50b1d0f770a3b601f55de0d35",
    "usb_funct": "03cec186807b064bf0ace7cd4cb560df34168d6eeb9b6ed87632b708b159775d",
    "ac97_ctrl": "c55613af1d2c5b654145ced7f94c59086e7e6ca321d8a730d713b3d7ed1b6591",
    "pci_bridge32": "bef942cef991badf72d1bd94251dc7d734360ddbf2f715c261bb4e2dd7a2cdb8",
}

#: The designs of perfbench's workloads, ``(circuit, scale, design seed)``:
#: flow_tight, flow_large (full size, about 1.5 s to build) and campaign_gang.
BENCHMARK_DIGESTS = {
    ("s13207", 0.3, 5): "c718daf55c2515a912241a4d3e2f222e22312f741830f42b302d273935dde72e",
    ("s38584", 1.0, 2): "a362f6f70506576bbf096cf3b737df61e8c5e371112d4e3c72d6776ec66d6193",
    ("s9234", 0.2, 1): "0afdde839fb151f26b9fd04b128900d23f5f51eb06c2398352c562bd75f70dbe",
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
