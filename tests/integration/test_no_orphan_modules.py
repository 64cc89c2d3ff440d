"""Every ``repro`` module has a caller outside itself.

A module that no other file of the program imports is kept working by
its own tests alone.  This test parses every ``.py`` file under
``src/``, ``examples/``, ``benchmarks/`` and ``perfbench/`` with
:mod:`ast`, imports inside functions and relative imports included, and
lists the ``repro`` modules that no other file imports.  Importing a
module imports every package above it, so a package counts as imported
when any of its submodules is.  ``repro.cli`` is exempt: it is the
console script.
"""

import ast
from pathlib import Path
from typing import Optional, Set

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks", "perfbench")
EXEMPT = {"repro.cli"}


def _module_name(path: Path) -> str:
    """Dotted name of a file under ``src/`` (a package for ``__init__.py``)."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_names(tree: ast.AST, module: Optional[str], is_package: bool) -> Set[str]:
    """Every dotted name an import statement of ``tree`` may bring in.

    ``from a import b`` yields ``a`` and ``a.b`` (``b`` may be a
    submodule).  Relative imports resolve against ``module``, the
    importing file's own name.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module is not None:
                package = module if is_package else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if base else package
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def orphan_modules() -> Set[str]:
    modules = {_module_name(path) for path in (ROOT / "src").rglob("*.py")}
    imported: Set[str] = set()
    for directory in SCANNED:
        for path in (ROOT / directory).rglob("*.py"):
            own = _module_name(path) if directory == "src" else None
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for name in _imported_names(tree, own, path.name == "__init__.py"):
                if name == own:
                    continue
                parts = name.split(".")
                imported.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return modules - imported - EXEMPT


def test_every_module_is_imported_by_another_file():
    orphans = orphan_modules()
    assert not orphans, f"modules no other file imports: {sorted(orphans)}"


def test_scan_resolves_relative_and_nested_imports():
    tree = ast.parse(
        "from . import sibling\n"
        "from ..other import thing\n"
        "def run():\n"
        "    import repro.deep.module\n"
    )
    names = _imported_names(tree, "repro.pkg.mod", is_package=False)
    assert {"repro.pkg.sibling", "repro.other.thing", "repro.deep.module"} <= names
    package_names = _imported_names(ast.parse("from . import child\n"), "repro.pkg", True)
    assert "repro.pkg.child" in package_names
