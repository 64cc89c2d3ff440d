"""Pinned plans of perfbench's flow_tight flows.

Each entry pins what one flow decides: the plan fingerprint (sha256 of
the sorted-key JSON of ``plan.as_dict()``, the fingerprint perfbench
checks), the tuned yield and the buffer count.  The design is
flow_tight's (s13207 at scale 0.3, design seed 5, target sigma 0, 800
training and 200 evaluation samples, serial); the flow seeds are the
four of bench seed 1, then the four of bench seed 97.  A failing entry
means the design, the training samples, the solver or the evaluation
moved: a deliberate rebase edits this table.
"""

import hashlib
import json

import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core.config import FlowConfig
from repro.core.flow import BufferInsertionFlow

#: flow seed -> (plan fingerprint, improved yield, buffers)
FLOW_TIGHT = {
    848236284: ("2b47180b3c2de991093711c2a545ce24b64fee922b37a04e8db965bdc3277df0", 0.975, 14),
    1866630472: ("6a569069b0e0f0ccd83f6bb7fcf706354e3af0ac9078f37d4ea974a09f31b15d", 0.96, 13),
    810634315: ("f5e148f99e37e18a91c2dc1cda0fb3c71113a0164a90c04576e63d4db1b71edb", 0.96, 16),
    805806388: ("b42ce65253bd29b3c9a347480e5720596a23870b8e389d5384221c4eb997219d", 0.965, 14),
    386181551: ("0c71022c02290c9ff2d8e429636b94cf89cceaeebb51888da885e798793a70ec", 0.97, 14),
    1030648133: ("26265d75f477ef31e4b9b166aa4dd98cbb59d77c11195081b1dfab4c7323f768", 0.975, 13),
    458727784: ("2351558067c2f346c8e48e8facfd7b3938969b1a1df5f159689f7514e3252fca", 0.98, 13),
    984015825: ("2cdd5614910892b66fc8f69248d9d93ef254fa4d04a0a94c13efcbcce133e76a", 0.98, 14),
}


def plan_fingerprint(plan) -> str:
    """perfbench's plan fingerprint."""
    text = json.dumps(plan.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def flow_tight_design():
    return build_suite_circuit("s13207", scale=0.3, seed=5)


@pytest.mark.parametrize("flow_seed", list(FLOW_TIGHT))
def test_flow_tight_plan_is_unchanged(flow_tight_design, flow_seed):
    config = FlowConfig(
        n_samples=800, n_eval_samples=200, seed=flow_seed, target_sigma=0.0, executor="serial"
    )
    result = BufferInsertionFlow(flow_tight_design, config).run()
    fingerprint, improved_yield, n_buffers = FLOW_TIGHT[flow_seed]
    assert plan_fingerprint(result.plan) == fingerprint
    assert result.improved_yield == improved_yield
    assert result.plan.n_buffers == n_buffers
