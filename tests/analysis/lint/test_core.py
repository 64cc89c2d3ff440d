"""Core machinery: FileContext, module names, the runner."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    FileContext,
    Finding,
    LintConfig,
    LintError,
    LintResult,
    LintRunner,
    build_rules,
    format_findings,
    module_name_for,
)


def make_context(source, path="mod.py"):
    return FileContext(path, textwrap.dedent(source), LintConfig())


class TestModuleNames:
    def test_package_chain_resolved(self, tmp_path):
        pkg = tmp_path / "repro" / "campaign"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "pool.py").write_text("")
        assert module_name_for(str(pkg / "pool.py")) == "repro.campaign.pool"

    def test_package_init_strips_suffix(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        assert module_name_for(str(pkg / "__init__.py")) == "repro"

    def test_free_standing_file_is_its_stem(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text("")
        assert module_name_for(str(script)) == "probe"


class TestFileContext:
    def test_syntax_error_is_lint_error_not_zero_findings(self):
        with pytest.raises(LintError, match="cannot parse"):
            make_context("def broken(:\n")

    def test_qualname_tracks_nesting(self):
        ctx = make_context(
            """
            class Store:
                def merge(self):
                    def inner():
                        pass
            """
        )
        import ast

        functions = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert ctx.qualname(functions["inner"]) == "Store.merge.inner"
        assert ctx.qualname(functions["merge"]) == "Store.merge"

    def test_resolve_handles_aliases(self):
        ctx = make_context(
            """
            import numpy as np
            from datetime import datetime
            import json
            a = np.random.seed
            b = datetime.now
            c = json.dumps
            """
        )
        import ast

        chains = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                chains[node.targets[0].id] = ctx.resolve(node.value)
        assert chains == {
            "a": "numpy.random.seed",
            "b": "datetime.datetime.now",
            "c": "json.dumps",
        }


class TestRunner:
    def test_missing_path_is_lint_error(self):
        runner = LintRunner(config=LintConfig())
        with pytest.raises(LintError, match="no such file or directory"):
            runner.run(["does/not/exist"])

    def test_collect_files_deduplicates_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        sub = tmp_path / "__pycache__"
        sub.mkdir()
        (sub / "a.cpython-311.py").write_text("")
        runner = LintRunner(config=LintConfig())
        files = runner.collect_files(
            [str(tmp_path), str(tmp_path / "a.py")]
        )
        names = [f.rsplit("/", 1)[-1] for f in files]
        assert names == ["a.py", "b.py"]

    def test_findings_sorted_by_location(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time, uuid\nb = uuid.uuid4()\na = time.time()\n",
            encoding="utf-8",
        )
        runner = LintRunner(
            config=LintConfig(determinism_modules=("mod",)),
            rules=build_rules(["determinism"]),
        )
        findings = runner.run([str(path)]).findings
        assert [f.line for f in findings] == [2, 3]

    def test_format_findings_summary(self):
        result = LintResult(
            findings=[Finding("mod.py", 3, 0, "determinism", "boom")], n_files=2
        )
        assert format_findings(result) == (
            "mod.py:3:0: [determinism] boom\n1 finding(s) in 2 file(s)"
        )


class TestRuleRegistry:
    def test_unknown_rule_is_lint_error(self):
        with pytest.raises(LintError, match="unknown rule"):
            build_rules(["no-such-rule"])

    def test_subset_and_dedup(self):
        rules = build_rules(["determinism", "determinism", "obs-naming"])
        assert [rule.name for rule in rules] == ["determinism", "obs-naming"]


def test_import_loads_no_numpy():
    """The linter is stdlib-only, and importing it loads nothing else."""
    code = (
        "import sys\n"
        "import repro.analysis.lint\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[3] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
