"""Rule ``obs-naming`` — span/metric names are static and well-formed.

The obs surface (``repro.obs``) is append-only telemetry: span names
feed ``trace summary`` groupings, metric names feed manifests and the
Prometheus endpoint.  Free-form names rot fast, so the convention is:

* names are **static string literals** at the call site (greppable,
  and statically checkable for collisions);
* they match ``^[a-z][a-z0-9_.]*$`` (dotted lowercase — what the
  Prometheus renderer and trace summary both assume);
* one name is **one metric kind** everywhere: the runtime registry
  raises on a counter/gauge/histogram kind collision, but only when
  the second call site actually executes — the cross-file pass here
  reports it before any process does.

A few modules fold a *closed* dimension set into names with f-strings
(``store.<driver>.<op>``); they are allowlisted in the config with a
justification, and their static f-string skeleton is still
grammar-checked.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.lint.core import FileContext, Finding, Rule

#: The naming grammar every span/metric name must match.
NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")

#: Registry factory methods, keyed by the metric kind they register.
_METRIC_ATTRS = ("counter", "gauge", "histogram")

#: Function names that open spans when called bare (obs re-exports).
_SPAN_NAMES = frozenset({"span", "trace_span"})

#: Where an imported span function comes from (``repro.obs.span``,
#: ``repro.obs.trace.span``).
_OBS_PACKAGE = "repro.obs."


class ObsNamingRule(Rule):
    name = "obs-naming"
    description = (
        "span/metric names must be static lowercase dotted literals; one "
        "name must map to one metric kind across the whole program"
    )

    def __init__(self) -> None:
        # name -> kind -> first location, accumulated for finish().
        self._registrations: Dict[str, Dict[str, Tuple[FileContext, ast.Call]]] = {}

    # ------------------------------------------------------------------
    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        config = ctx.config
        if not config.module_matches(ctx.module, config.obs_modules):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _registration_kind(ctx, node)
            if kind is None:
                continue
            if config.site_allowed(ctx.module, ctx.qualname(node), config.obs_allow):
                continue
            findings.extend(self._check_name(ctx, node, kind))
        return findings

    def _check_name(
        self, ctx: FileContext, node: ast.Call, kind: str
    ) -> Iterable[Finding]:
        name_node = _name_argument(node)
        if name_node is None:
            return
        dynamic_ok = ctx.config.module_matches(
            ctx.module, ctx.config.obs_dynamic_allow
        )
        if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str):
            name = name_node.value
            if not NAME_RE.match(name):
                yield ctx.finding(
                    self.name,
                    node,
                    f"{kind} name {name!r} does not match the naming grammar "
                    "^[a-z][a-z0-9_.]*$",
                )
                return
            if kind in _METRIC_ATTRS:
                self._registrations.setdefault(name, {}).setdefault(
                    kind, (ctx, node)
                )
            return
        if isinstance(name_node, ast.JoinedStr):
            if not dynamic_ok:
                yield ctx.finding(
                    self.name,
                    node,
                    f"{kind} name must be a static string literal, not an "
                    "f-string (dynamic-name modules are allowlisted in the "
                    "config with a justification)",
                )
                return
            skeleton = _fstring_skeleton(name_node)
            if skeleton is not None and not NAME_RE.match(skeleton):
                yield ctx.finding(
                    self.name,
                    node,
                    f"{kind} name f-string's static skeleton {skeleton!r} does "
                    "not match the naming grammar ^[a-z][a-z0-9_.]*$",
                )
            return
        if not dynamic_ok:
            yield ctx.finding(
                self.name,
                node,
                f"{kind} name must be a static string literal so collisions "
                "and grammar can be checked before runtime",
            )

    # ------------------------------------------------------------------
    def finish(self) -> Iterable[Finding]:
        findings: List[Finding] = []
        for name in sorted(self._registrations):
            kinds = self._registrations[name]
            if len(kinds) < 2:
                continue
            ordered = sorted(kinds)
            sites = ", ".join(
                f"{kind} at {kinds[kind][0].path}:{kinds[kind][1].lineno}"
                for kind in ordered
            )
            for kind in ordered[1:]:
                ctx, node = kinds[kind]
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        f"metric name {name!r} is registered as more than one "
                        f"kind ({sites}); the runtime registry will raise on "
                        "whichever call site runs second",
                    )
                )
        return findings


def _name_argument(node: ast.Call) -> Optional[ast.expr]:
    """The expression supplying the registered name: the first
    positional argument, or a ``name=`` keyword (every registration
    API here takes the name as its sole ``name`` parameter)."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _registration_kind(ctx: FileContext, node: ast.Call) -> Optional[str]:
    """``"counter"|"gauge"|"histogram"|"span"`` when the call registers an
    obs name, else ``None``.

    A bare ``span``/``trace_span`` imported from outside ``repro.obs`` is
    some other helper and is not checked; one defined in the file (the
    tracer's own module) is.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id in _SPAN_NAMES:
        if func.id in ctx.imports and not ctx.resolve(func).startswith(_OBS_PACKAGE):
            return None
        return "span"
    if isinstance(func, ast.Attribute):
        if func.attr in _METRIC_ATTRS and _is_registry_receiver(func.value):
            return func.attr
        if func.attr == "span" and _is_tracer_receiver(func.value):
            return "span"
    return None


def _is_registry_receiver(node: ast.expr) -> bool:
    """Whether the receiver expression plausibly names a metrics registry."""
    if isinstance(node, ast.Name):
        return "registry" in node.id
    if isinstance(node, ast.Attribute):
        return "registry" in node.attr or _is_registry_receiver(node.value)
    if isinstance(node, ast.Call):
        return _is_registry_receiver(node.func)
    return False


def _is_tracer_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return "tracer" in node.id or node.id == "obs"
    if isinstance(node, ast.Attribute):
        return "tracer" in node.attr
    return False


def _fstring_skeleton(node: ast.JoinedStr) -> Optional[str]:
    """The f-string with every interpolation replaced by ``x0`` — a
    grammar-conforming placeholder — so the static segments can be
    checked; ``None`` when the name is entirely dynamic."""
    parts: List[str] = []
    saw_static = False
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
            saw_static = True
        else:
            parts.append("x0")
    if not saw_static:
        return None
    return "".join(parts)
