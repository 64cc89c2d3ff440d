"""The ``repro lint`` subcommand: exit codes, the --json schema, rule selection."""

import json
import textwrap

import pytest

from repro.cli import build_parser, main

CLEAN = "VALUE = 1\n"
DIRTY = textwrap.dedent(
    """
    import time
    stamp = time.time()
    """
)
TARGET = "repro/campaign/mod.py"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """A tmp CWD holding the packages ``repro`` and ``repro.campaign``.

    ``repro/campaign/mod.py`` is module ``repro.campaign.mod``, which the
    default ``repro.campaign.*`` tables classify for determinism and
    canonical-json.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "repro" / "campaign").mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "repro" / "campaign" / "__init__.py").write_text("", encoding="utf-8")
    return tmp_path


def write_target(workspace, source):
    (workspace / TARGET).write_text(source, encoding="utf-8")
    return TARGET


def assert_unknown_argument(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestExitCodes:
    def test_clean_run_exits_0(self, workspace, capsys):
        target = write_target(workspace, CLEAN)
        assert main(["lint", target]) == 0
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_findings_exit_1(self, workspace, capsys):
        target = write_target(workspace, DIRTY)
        assert main(["lint", target]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out
        assert f"{TARGET}:3:" in out

    def test_missing_path_exits_2(self, workspace, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_2(self, workspace, capsys):
        """The linter reads no config file: ``--config`` is an unknown argument."""
        target = write_target(workspace, CLEAN)
        (workspace / "cfg.toml").write_text("???", encoding="utf-8")
        assert_unknown_argument(capsys, ["lint", target, "--config", "cfg.toml"], "--config")

    def test_bad_baseline_exits_2(self, workspace, capsys):
        """There are no baselines: ``--baseline`` is an unknown argument."""
        target = write_target(workspace, CLEAN)
        (workspace / "base.json").write_text("[]", encoding="utf-8")
        assert_unknown_argument(capsys, ["lint", target, "--baseline", "base.json"], "--baseline")

    def test_options_are_rule_selection_and_output_only(self):
        """Nothing configures or exempts from the command line."""
        args = build_parser().parse_args(["lint"])
        assert sorted(vars(args)) == ["command", "json", "list_rules", "paths", "rule"]

    def test_unparseable_target_exits_2(self, workspace, capsys):
        target = write_target(workspace, "def broken(:\n")
        assert main(["lint", target]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--rule", "no-such-rule"])
        assert excinfo.value.code == 2


class TestJsonOutput:
    def test_schema_and_canonical_bytes(self, workspace, capsys):
        target = write_target(workspace, DIRTY)
        assert main(["lint", target, "--json"]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert sorted(payload) == ["findings", "n_files", "n_findings", "schema_version"]
        assert payload["schema_version"] == 3
        assert payload["n_files"] == 1
        assert payload["n_findings"] == 1
        (finding,) = payload["findings"]
        assert sorted(finding) == ["col", "line", "message", "path", "rule"]
        assert finding["rule"] == "determinism"
        assert finding["path"] == TARGET
        assert finding["line"] == 3
        # The linter holds itself to canonical-json: byte-stable output.
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_clean_json_run(self, workspace, capsys):
        target = write_target(workspace, CLEAN)
        assert main(["lint", target, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestRuleSelection:
    def test_single_rule_filter(self, workspace, capsys):
        source = DIRTY + "import json\ntext = json.dumps({})\n"
        target = write_target(workspace, source)
        assert main(["lint", target, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"canonical-json", "determinism"}

        assert main(["lint", target, "--rule", "canonical-json", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"canonical-json"}

    def test_list_rules(self, workspace, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "canonical-json",
            "cli-conventions",
            "determinism",
            "obs-naming",
            "transaction-discipline",
        ):
            assert name in out
