"""Lint config: classification matching and the reasoned allowlist defaults."""

import ast
import io
import tokenize
from dataclasses import fields
from pathlib import Path

from repro.analysis.lint import LintConfig
from repro.analysis.lint import config as config_module


class TestClassification:
    def test_module_glob_matching(self):
        config = LintConfig()
        assert config.module_matches("repro.campaign.pool", ("repro.campaign.*",))
        assert not config.module_matches("repro.campaign", ("repro.campaign.*",))
        assert config.module_matches("repro.cli", ("repro.cli",))
        assert not config.module_matches("repro.cli2", ("repro.cli",))

    def test_site_allowed_module_entry(self):
        config = LintConfig()
        assert config.site_allowed("repro.obs.trace", "anything", ("repro.obs.*",))
        assert not config.site_allowed("repro.cli", "anything", ("repro.obs.*",))

    def test_site_allowed_qualname_entry(self):
        allow = ("repro.campaign.store:CampaignStore.merge",)
        config = LintConfig()
        assert config.site_allowed(
            "repro.campaign.store", "CampaignStore.merge", allow
        )
        assert config.site_allowed(
            "repro.campaign.store", "CampaignStore.merge.inner", allow
        )
        assert not config.site_allowed(
            "repro.campaign.store", "CampaignStore.merge_all", allow
        )
        assert not config.site_allowed(
            "repro.campaign.store", "CampaignStore", allow
        )


def test_comment_directly_above_every_default_allow_entry():
    """Each default allowlist entry carries its one-line justification.

    The allowlists are the linter's only exemption; the reason for an
    entry is the comment on the line directly above its string.
    """
    source = Path(config_module.__file__).read_text(encoding="utf-8")
    (cls,) = (
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "LintConfig"
    )
    defaults = {
        node.target.id: node.value
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and node.target.id.endswith("_allow")
    }
    assert set(defaults) == {f.name for f in fields(LintConfig) if f.name.endswith("_allow")}
    comment_lines = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and token.line.lstrip().startswith("#")
    }
    entries = [(name, entry) for name, value in defaults.items() for entry in value.elts]
    assert entries, "the default allowlists hold no entry"
    unexplained = [
        f"{name}: line {entry.lineno}"
        for name, entry in entries
        if not (isinstance(entry, ast.Constant) and isinstance(entry.value, str))
        or entry.lineno - 1 not in comment_lines
    ]
    assert not unexplained, unexplained
