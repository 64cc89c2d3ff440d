"""Core machinery of the invariant linter.

A lint run is: collect ``*.py`` files from the given paths, parse each
into a :class:`FileContext` (AST with parent links, import resolution,
module classification), hand every context to every :class:`Rule`, then
give each rule a cross-file ``finish()`` pass for whole-program checks
(the obs-naming kind-collision check lives there).  Findings are sorted
into a stable ``(path, line, col, rule)`` order.  There is no inline
marker and no baseline: a site is exempt only through an allowlist
entry of :class:`~repro.analysis.lint.config.LintConfig`.

Design notes:

* Rules are instantiated per run — ``finish()`` state never leaks
  between runs.
* A file that does not parse is a *usage* error (:class:`LintError`,
  CLI exit 2), not a finding: an unparseable tree can hide any number
  of violations, so "0 findings" must never be reported for it.
"""

from __future__ import annotations

import ast
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.lint.config import LintConfig


class LintError(ValueError):
    """A lint run cannot proceed (bad path, unparseable file)."""


#: Version of the ``--json`` findings schema; bump on layout changes.
#: v3: the report holds ``findings``, ``n_files`` and ``n_findings``; a
#: finding holds ``rule``, ``path``, ``line``, ``col`` and ``message``.
REPORT_SCHEMA_VERSION = 3


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class FileContext:
    """One parsed source file plus everything rules need to reason about it.

    Attributes
    ----------
    path:
        The path findings are reported under (normalised, ``/``-separated).
    module:
        Dotted module name, derived from the package structure on disk
        (``__init__.py`` chains, with a ``src`` layout root recognised);
        a free-standing file is just its stem.  Rules scope themselves
        by matching this against the config's module globs.
    tree:
        The parsed AST; every node carries a ``parent`` backlink (the
        module node's parent is ``None``).
    """

    def __init__(self, path: str, source: str, config: LintConfig) -> None:
        self.path = os.path.normpath(path).replace(os.sep, "/")
        self.source = source
        self.config = config
        try:
            self.tree = ast.parse(source)
        except SyntaxError as error:
            raise LintError(
                f"{self.path}:{error.lineno or 0}: cannot parse: {error.msg}"
            ) from None
        self._parents: Dict[ast.AST, Optional[ast.AST]] = {self.tree: None}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self.module = module_name_for(path)
        self.imports = _collect_imports(self.tree)

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """The node's enclosing chain, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def qualname(self, node: ast.AST) -> str:
        """Dotted function/class nesting of a node (``""`` at module level)."""
        parts: List[str] = []
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(ancestor.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parts.insert(0, node.name)
        return ".".join(reversed(parts))

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor  # type: ignore[return-value]
        return None

    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of a Name/Attribute chain.

        Import aliases are resolved (``import numpy as np`` makes
        ``np.random.seed`` resolve to ``numpy.random.seed``;
        ``from datetime import datetime`` makes ``datetime.now``
        resolve to ``datetime.datetime.now``).  A chain rooted in a
        local object resolves to its literal spelling
        (``self.backend.append``); subscripts/calls in the chain
        resolve to ``None``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.imports.get(current.id, current.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


def module_name_for(path: str) -> str:
    """Dotted module name of a file, from its on-disk package chain.

    Walks up while ``__init__.py`` siblings exist (so both ``src``
    layouts and plain packages resolve), then strips a trailing
    ``.__init__``.  A file outside any package is its bare stem.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    parts = [os.path.splitext(filename)[0]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.append(package)
    module = ".".join(reversed(parts))
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Alias → fully-qualified-name map from a module's import statements."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


# ----------------------------------------------------------------------
# Rule interface
# ----------------------------------------------------------------------
class Rule(ABC):
    """One project invariant, checked per file with an optional
    cross-file ``finish()`` pass.

    Subclasses set ``name`` (the ``--rule`` identifier) and
    ``description`` (one line for ``repro lint --list-rules``), scope
    themselves via the config's module globs, and may accumulate state
    across ``check_file`` calls for ``finish`` — instances live for
    exactly one run.
    """

    name: str = ""
    description: str = ""

    @abstractmethod
    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Findings for one parsed file."""

    def finish(self) -> Iterable[Finding]:
        """Whole-program findings after every file has been checked."""
        return ()


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """What one lint run produced."""

    findings: List[Finding]
    n_files: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "findings": [finding.as_dict() for finding in self.findings],
            "n_findings": len(self.findings),
            "n_files": self.n_files,
        }


class LintRunner:
    """Drive a set of rules over a set of paths."""

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        from repro.analysis.lint.rules import build_rules

        self.config = config if config is not None else LintConfig()
        self.rules: List[Rule] = (
            list(rules) if rules is not None else build_rules()
        )

    # ------------------------------------------------------------------
    def collect_files(self, paths: Sequence[str]) -> List[str]:
        """Expand files/directories into a sorted, deduplicated file list."""
        files: List[str] = []
        seen: Set[str] = set()
        excluded = set(self.config.exclude_dirs)
        for path in paths:
            if os.path.isfile(path):
                candidates = [path]
            elif os.path.isdir(path):
                candidates = []
                for root, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(d for d in dirnames if d not in excluded)
                    for filename in sorted(filenames):
                        if filename.endswith(".py"):
                            candidates.append(os.path.join(root, filename))
            else:
                raise LintError(f"no such file or directory: {path!r}")
            for candidate in candidates:
                normalised = os.path.normpath(candidate)
                if normalised not in seen:
                    seen.add(normalised)
                    files.append(normalised)
        return files

    def run(self, paths: Sequence[str]) -> LintResult:
        files = self.collect_files(paths)
        findings: List[Finding] = []
        for path in files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as error:
                raise LintError(f"cannot read {path!r}: {error}") from error
            ctx = FileContext(path, source, self.config)
            for rule in self.rules:
                findings.extend(rule.check_file(ctx))
        for rule in self.rules:
            findings.extend(rule.finish())
        return LintResult(findings=sorted(findings), n_files=len(files))


def format_findings(result: LintResult) -> str:
    """Human-readable rendering of a lint result."""
    lines = [finding.render() for finding in result.findings]
    lines.append(f"{len(result.findings)} finding(s) in {result.n_files} file(s)")
    return "\n".join(lines)


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "FileContext",
    "Finding",
    "LintError",
    "LintResult",
    "LintRunner",
    "Rule",
    "format_findings",
    "module_name_for",
]
