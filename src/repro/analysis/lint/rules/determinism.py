"""Rule ``determinism`` — no nondeterminism in result-bearing code.

Every byte this project promises to reproduce — cell fingerprints,
campaign reports, merged stores, ``--json`` CLI output — flows through
a small set of modules.  Inside them, three classes of calls silently
break bit-identity:

* **wall-clock** (``time.time``, ``datetime.now`` and friends): two
  honest runs of the same cell disagree;
* **ambient randomness** (``random`` module state, ``numpy.random``
  module-level functions, ``uuid``, ``os.urandom``, ``secrets``): the
  project's RNG discipline is explicit seeded generators
  (:func:`repro.utils.rng.ensure_rng`), never process-global state;
* **set iteration**: ``str`` hashing is randomised per process
  (``PYTHONHASHSEED``), so iterating a set — directly, or via
  ``list(set(...))`` — yields a different order in every run.  Wrap in
  ``sorted(...)`` instead.  (Dict iteration is insertion-ordered and is
  therefore not flagged; dict *serialisation* order is the
  ``canonical-json`` rule's job.)

Envelope timestamps (a record's ``completed_unix``, an artifact's
``created_unix``) are intentionally wall-clock; those sites live in the
config allowlist with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.lint.core import FileContext, Finding, Rule

#: Wall-clock call targets (fully qualified after import resolution).
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Entropy sources the explicit-seed discipline forbids.
ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: ``numpy.random`` module-level functions mutate/read global RNG state;
#: the class-style API (``default_rng``, ``Generator``, ``SeedSequence``)
#: is the sanctioned, explicitly-seeded path.
NUMPY_MODULE_STATE = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
    }
)


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no wall-clock, ambient RNG state, or set iteration in "
        "fingerprint/report/canonical-serialisation modules"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        config = ctx.config
        if not config.module_matches(ctx.module, config.determinism_modules):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                candidates = self._check_call(ctx, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                candidates = self._check_iteration(ctx, node.iter)
            else:
                continue
            if not config.site_allowed(
                ctx.module, ctx.qualname(node), config.determinism_allow
            ):
                findings.extend(candidates)
        return findings

    # ------------------------------------------------------------------
    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterable[Finding]:
        name = ctx.resolve(node.func)
        if name is None:
            return
        if name in WALL_CLOCK:
            yield ctx.finding(
                self.name,
                node,
                f"wall-clock call {name}() in a deterministic module; results "
                "must be bit-identical across runs (envelope timestamps belong "
                "in the allowlist)",
            )
        elif name in ENTROPY:
            yield ctx.finding(
                self.name,
                node,
                f"entropy source {name}() in a deterministic module; derive "
                "identifiers from content fingerprints or explicit seeds",
            )
        elif name.startswith("random.") and _root_is_imported(ctx, node.func):
            # resolve() falls back to the bare spelling for local
            # objects, so a variable that merely *is named* `random`
            # must not trip the stdlib-module check.
            yield ctx.finding(
                self.name,
                node,
                f"module-state RNG call {name}() in a deterministic module; "
                "use an explicitly seeded generator (repro.utils.rng.ensure_rng)",
            )
        elif (
            name.startswith("numpy.random.")
            and name.rsplit(".", 1)[1] in NUMPY_MODULE_STATE
        ):
            yield ctx.finding(
                self.name,
                node,
                f"numpy global-state RNG call {name}() in a deterministic "
                "module; use numpy.random.default_rng with an explicit seed",
            )
        elif isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple"):
            if len(node.args) == 1 and _is_set_expr(node.args[0]):
                yield ctx.finding(
                    self.name,
                    node,
                    f"{node.func.id}() over a set has hash-randomised order; "
                    "wrap the set in sorted(...) instead",
                )

    def _check_iteration(
        self, ctx: FileContext, iterable: ast.expr
    ) -> Iterable[Finding]:
        if _is_set_expr(iterable):
            yield ctx.finding(
                self.name,
                iterable,
                "iteration over a set has hash-randomised order; iterate "
                "sorted(...) of it instead",
            )


def _root_is_imported(ctx: FileContext, func: ast.expr) -> bool:
    """Whether the call chain's root name comes from an import statement
    (rather than a local variable/parameter that resolve() echoed back)."""
    node = func
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ctx.imports


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression is statically known to produce a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    # Set algebra on known sets (a | b, a - b ...) stays a set.
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False
