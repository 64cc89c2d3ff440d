"""``repro lint`` — an AST-based linter for the repo's own invariants.

Every guarantee this reproduction ships — bit-identical flow results
across executors, byte-identical campaign reports across kill/resume
and store drivers, exactly-one lease per job — is an *invariant*, and
until this package existed each one was enforced only at runtime by
tests that had to think to exercise the right interleaving.  The
linter turns the conventions behind those guarantees into static
checks over the project's own AST:

``determinism``
    No wall-clock, ambient RNG state, or set iteration in modules that
    emit fingerprints, reports, or canonical serialisations.
``canonical-json``
    ``json.dumps`` in those modules must pass ``sort_keys=True``.
``transaction-discipline``
    Store mutations in domain layers must sit inside
    ``backend.transaction()`` (the PR 7 pool-publish race class).
``obs-naming``
    Span/metric names are static lowercase dotted literals, and one
    name is one metric kind across the whole program.
``cli-conventions``
    Subcommand handlers return ``int`` and route usage errors to
    exit 2.

Module classification and the per-rule allowlists are the defaults of
:class:`~repro.analysis.lint.config.LintConfig`, the linter's only
configuration: an allowlist entry with its one-line reason is the only
way to exempt a site, and a new rule lands with its violations in this
tree fixed or allowlisted in the same change.  The linter self-hosts:
``repro lint src tests`` runs clean in CI next to ruff.
"""

from repro.analysis.lint.config import LintConfig
from repro.analysis.lint.core import (
    FileContext,
    Finding,
    LintError,
    LintResult,
    LintRunner,
    Rule,
    format_findings,
    module_name_for,
)
from repro.analysis.lint.rules import RULE_NAMES, RULE_REGISTRY, build_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintError",
    "LintResult",
    "LintRunner",
    "RULE_NAMES",
    "RULE_REGISTRY",
    "Rule",
    "build_rules",
    "format_findings",
    "module_name_for",
]
