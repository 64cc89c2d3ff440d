"""A numpy-only install builds designs, runs a flow and serves the CLI.

``pyproject.toml`` declares numpy as the only dependency (scipy is an
optional extra, networkx a test-only oracle).  The child interpreter
blocks both imports, so any module-level import of either fails here.
"""

import os
import subprocess
import sys
import textwrap

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


def test_flow_and_cli_run_without_networkx_or_scipy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert "circuit s9234 (scale 0.05)" in done.stdout
    assert "mu_T = " in done.stdout
