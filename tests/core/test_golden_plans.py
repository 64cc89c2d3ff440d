"""Pinned plans of perfbench's flow workloads and of the MILP backend.

Each entry pins what one flow decides: the plan fingerprint (sha256 of
the sorted-key JSON of ``plan.as_dict()``, the fingerprint perfbench
checks), the tuned yield and the buffer count.  Every flow is serial,
and the flow seeds are those of bench seed 1, then those of bench seed
97, in perfbench's order:

* flow_tight: s13207 at scale 0.3, design seed 5, target sigma 0, 800
  training and 200 evaluation samples, four flows per bench seed;
* flow_large: full-size s38584, design seed 2, target sigma 2, 200
  training and 1,000 evaluation samples, six flows per bench seed (one
  build of about 1.5 s, then under a second per flow);
* the full bench suite's MILP scenario: s9234 at scale 0.05, design and
  flow seed 3, target sigma 1, 40 training and 80 evaluation samples,
  ``solver="milp"`` on the array simplex (``lp_backend="simplex"``, so
  the pin holds with or without scipy; about a second).

A failing entry means the design, the training samples, the solver or
the evaluation moved: a deliberate rebase edits these tables.
"""

import hashlib
import json

import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core.config import FlowConfig
from repro.core.flow import BufferInsertionFlow

#: flow seed -> (plan fingerprint, improved yield, buffers), per workload
FLOW_TIGHT = {
    848236284: ("b1713bffaea583ba6966d6edd21382cc57f71b646af69c5f524dbc7fcc024977", 0.975, 14),
    1866630472: ("f3c7f46142fad3dff11722cf434343b22420dbdab44017e5bc0a6385b9c612b3", 0.96, 13),
    810634315: ("2e0d4267841069f6010a22c3d369b4aa037098ff5358a0c39f96f27be06101b5", 0.96, 16),
    805806388: ("92c8914c6b52728f5acd06c07bff3a1c20ffa0aeda2555dd496853aa8e4a94d2", 0.965, 14),
    386181551: ("2525d8accbc0d2237da181a7860a10ba2237eac49d7f1ef4b69c5413f50c1d90", 0.97, 14),
    1030648133: ("86fef7a1ed2dab8d360ee274b04e34f271edcabb79fcbae9e34b8bd4c3d34f98", 0.975, 13),
    458727784: ("43d0960fe27cc94196ab2b7de4d1be6b815a7fe6e2b51d63e1f043a913232d91", 0.98, 13),
    984015825: ("afcec79777cba008c1627dcda51f9b80770987567400fa3bbea0ab8b1532017d", 0.98, 13),
}

FLOW_LARGE = {
    848236284: ("f0ba607ba12a2bb98b174e695b401fd66db7dacf9993f1c86e5d8bba70cb901f", 0.913, 9),
    1866630472: ("55a5ce2a3771c9bdecade92a46af2df9bde15e3b4cf74d0c5eaac1d3a0679f00", 0.928, 5),
    810634315: ("ecc7ff4f31fb024394bf9cb92b7b22d42421495471539861b6e771095d9b1d40", 0.925, 36),
    805806388: ("891cc5de0cda3d14a05723a9eb0208915e0df7d523683aabd801aac28aca4a90", 0.924, 7),
    188831472: ("141f4caba2f55326911d4096d4ec8d0810687074324060d46641d049dd407f64", 0.92, 9),
    1371691778: ("4646321362480bb10e52840c15febe41ae5478aaaf9e474e9d2bbe61b0c8ae17", 0.935, 22),
    386181551: ("5b3a688619e0498e0b38b167966270c529268ffa2cbfc9b35c0ff0a6d6e0998f", 0.932, 9),
    1030648133: ("d33956dff98e2a7c216ebdb579491c2daa6882ab9a91a7497b899bd5db9f617a", 0.921, 8),
    458727784: ("05d2071a3531ab842ef3aeaecdc10b5098151b1f0a2489d8d81c131f547ad914", 0.945, 5),
    984015825: ("d08251e0474adf88b01cadd122d47860aef0ffae191e92b474f3353ca1ff7dd1", 0.927, 9),
    713813602: ("ebca12b3ed2461da2409309e43c617600bf11acd5e90c56106364d94592fc71c", 0.93, 3),
    60897377: ("68bf7b4bf0a931311a6519160b1d6acd286298a47ca6fb2bfc9d1495c05bf4b1", 0.924, 25),
}

MILP = {
    3: ("ee66a40b80282da791737ba93a8c03d9f9c1c7c7c86f5bd1ae443de7686d06d2", 0.9875, 1),
}


def plan_fingerprint(plan) -> str:
    """perfbench's plan fingerprint."""
    text = json.dumps(plan.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_plan_is_pinned(
    design, table, flow_seed, *, sigma, n_samples, n_eval_samples, **settings
):
    config = FlowConfig(
        n_samples=n_samples,
        n_eval_samples=n_eval_samples,
        seed=flow_seed,
        target_sigma=sigma,
        executor="serial",
        **settings,
    )
    result = BufferInsertionFlow(design, config).run()
    fingerprint, improved_yield, n_buffers = table[flow_seed]
    assert plan_fingerprint(result.plan) == fingerprint
    assert result.improved_yield == improved_yield
    assert result.plan.n_buffers == n_buffers


@pytest.fixture(scope="module")
def flow_tight_design():
    return build_suite_circuit("s13207", scale=0.3, seed=5)


@pytest.fixture(scope="module")
def flow_large_design():
    return build_suite_circuit("s38584", scale=1.0, seed=2)


@pytest.mark.parametrize("flow_seed", list(FLOW_TIGHT))
def test_flow_tight_plan_is_unchanged(flow_tight_design, flow_seed):
    assert_plan_is_pinned(
        flow_tight_design, FLOW_TIGHT, flow_seed, sigma=0.0, n_samples=800, n_eval_samples=200
    )


@pytest.mark.parametrize("flow_seed", list(FLOW_LARGE))
def test_flow_large_plan_is_unchanged(flow_large_design, flow_seed):
    assert_plan_is_pinned(
        flow_large_design, FLOW_LARGE, flow_seed, sigma=2.0, n_samples=200, n_eval_samples=1000
    )


def test_milp_plan_is_unchanged():
    design = build_suite_circuit("s9234", scale=0.05, seed=3)
    assert_plan_is_pinned(
        design,
        MILP,
        3,
        sigma=1.0,
        n_samples=40,
        n_eval_samples=80,
        solver="milp",
        lp_backend="simplex",
    )
