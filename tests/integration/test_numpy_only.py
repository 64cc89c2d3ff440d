"""A numpy-only install builds designs, runs a flow and serves the CLI.

``pyproject.toml`` declares numpy as the only dependency (scipy is an
optional extra, networkx a test-only oracle).  The child interpreters
block both imports, so any module-level import of either fails here; a
numpy-only child must also build the very designs the full install
pins, and a child with scipy installed must still not import it.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

_NUMPY_ONLY = textwrap.dedent(
    """
    import sys

    sys.modules["networkx"] = None  # every networkx import now raises ImportError
    sys.modules["scipy"] = None

    from repro.circuit.suite import build_suite_circuit
    from repro.cli import main
    from repro.core import BufferInsertionFlow, FlowConfig

    design = build_suite_circuit("s9234", scale=0.05, seed=1)
    config = FlowConfig(n_samples=40, n_eval_samples=100, seed=3, executor="serial")
    result = BufferInsertionFlow(design, config).run()
    assert 0.0 <= result.improved_yield <= 1.0
    sys.exit(main(["characterize", "--circuit", "s9234", "--scale", "0.05", "--samples", "50"]))
    """
)

# perfbench's two small designs (campaign_gang's and flow_tight's) against
# the digests the full install pins.
_NO_SCIPY_DESIGNS = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None

    from repro.circuit.suite import build_suite_circuit
    from tests.circuit.test_design_identity import BENCHMARK_DIGESTS, design_digest

    for circuit, scale, seed in (("s9234", 0.2, 1), ("s13207", 0.3, 5)):
        design = build_suite_circuit(circuit, scale=scale, seed=seed)
        digest = design_digest(design)
        assert digest == BENCHMARK_DIGESTS[(circuit, scale, seed)], (circuit, digest)
    """
)

# The parser, the service and a flow, with scipy importable.
_NO_SCIPY_IMPORTED = textwrap.dedent(
    """
    import sys

    from repro.cli import build_parser

    build_parser()
    import repro.service  # noqa: F401
    from repro.circuit.suite import build_suite_circuit
    from repro.core import BufferInsertionFlow, FlowConfig

    design = build_suite_circuit("s9234", scale=0.05, seed=1)
    config = FlowConfig(n_samples=40, n_eval_samples=100, seed=3, executor="serial")
    BufferInsertionFlow(design, config).run()
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, loaded
    """
)


def run_child(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with ``src/`` and the repo root importable."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def test_flow_and_cli_run_without_networkx_or_scipy():
    done = run_child(_NUMPY_ONLY)
    assert done.returncode == 0, done.stderr
    assert "circuit s9234 (scale 0.05)" in done.stdout
    assert "mu_T = " in done.stdout


def test_designs_without_scipy_match_the_pinned_digests():
    done = run_child(_NO_SCIPY_DESIGNS)
    assert done.returncode == 0, done.stderr


def test_parser_service_and_flow_import_no_scipy():
    pytest.importorskip("scipy")
    done = run_child(_NO_SCIPY_IMPORTED)
    assert done.returncode == 0, done.stderr
