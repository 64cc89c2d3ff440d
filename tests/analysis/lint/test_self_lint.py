"""The linter self-hosts: the repo's own sources must lint clean.

This is the test-suite twin of the CI lint gate.  It runs with the
built-in project classification, the linter's only configuration, so
any new violation in ``src/`` or ``tests/`` fails here first — the fix
is to repair the code or to extend the config allowlist *with a
justification*.
"""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[3]


def test_src_lints_clean(capsys):
    code = main(["lint", str(REPO_ROOT / "src")])
    out = capsys.readouterr().out
    assert code == 0, f"repro lint src/ found violations:\n{out}"
    assert "0 finding(s)" in out


def test_tests_lint_clean(capsys):
    code = main(["lint", str(REPO_ROOT / "tests")])
    out = capsys.readouterr().out
    assert code == 0, f"repro lint tests/ found violations:\n{out}"


def test_src_lint_json_schema(capsys):
    """The CI gate consumes --json; lock the payload it depends on."""
    code = main(["lint", str(REPO_ROOT / "src"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 3
    assert payload["findings"] == []
    assert payload["n_files"] > 100  # the whole package, not a subset
