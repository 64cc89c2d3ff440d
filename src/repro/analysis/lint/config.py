"""Configuration for the invariant linter.

Module classification is the heart of every rule: "``json.dumps`` needs
``sort_keys``" is only an invariant in modules that *emit canonical
bytes*, and "no wall-clock" only applies to code whose output must be
bit-identical across runs.  :class:`LintConfig` carries those
classifications as dotted-module glob patterns plus per-rule allowlists
(``module`` or ``module:qualname`` entries) for the cases that are
*intentionally* exempt — each default entry below carries a one-line
justification, which is the project's policy for exemptions.

The defaults encode this repository's own layout and are the linter's
only configuration: ``repro lint`` reads no config file, and an
allowlist entry with its reason is the only way to exempt a site.
Tests construct a :class:`LintConfig` with their own tables.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Sequence, Tuple

#: Directory names never descended into when expanding lint paths.
DEFAULT_EXCLUDE_DIRS = (
    ".git",
    "__pycache__",
    ".venv",
    "venv",
    "build",
    "dist",
    ".eggs",
)


@dataclass(frozen=True)
class LintConfig:
    """Module classification and per-rule allowlists for every rule."""

    #: Directory names skipped while collecting ``*.py`` files.
    exclude_dirs: Tuple[str, ...] = DEFAULT_EXCLUDE_DIRS

    # -- determinism ---------------------------------------------------
    #: Modules whose output must be bit-identical across runs
    #: (fingerprints, reports, canonical serialisation, CLI --json).
    determinism_modules: Tuple[str, ...] = (
        "repro.cli",
        "repro.campaign.*",
        "repro.bench.artifact",
        "repro.bench.compare",
        "repro.bench.runner",
        "repro.bench.trend",
        "repro.store.base",
        "repro.store.jsonl",
        "repro.store.sqlite",
        "repro.store.uri",
    )
    #: ``module`` / ``module:qualname`` sites exempt from determinism.
    determinism_allow: Tuple[str, ...] = (
        # completed_unix stamps the record *envelope*, which every
        # byte-identity comparison explicitly excludes.
        "repro.campaign.store:make_record",
        # created_unix stamps the artifact envelope; comparisons and
        # trend fingerprints treat it as run identity, not content.
        "repro.bench.artifact:BenchArtifact.__post_init__",
    )

    # -- canonical-json ------------------------------------------------
    #: Modules whose json.dumps/json.dump output is canonical bytes.
    canonical_json_modules: Tuple[str, ...] = (
        "repro.cli",
        "repro.campaign.*",
        "repro.bench.*",
        "repro.store.*",
        "repro.obs.*",
        # service.client is deliberately absent: its json.dumps encodes
        # HTTP request bodies (transport, parsed by the server), never
        # canonical output bytes.
        "repro.service.api",
        "repro.service.queue",
        "repro.service.worker",
    )
    canonical_json_allow: Tuple[str, ...] = ()

    # -- transaction-discipline ----------------------------------------
    #: Domain layers whose store mutations must run inside
    #: ``backend.transaction()`` (the PR 7 pool-publish race class).
    transaction_modules: Tuple[str, ...] = (
        "repro.campaign.store",
        "repro.campaign.pool",
        "repro.service.queue",
    )
    transaction_allow: Tuple[str, ...] = (
        # merge() writes a brand-new output store in one replace_all,
        # which is internally atomic (temp+rename on jsonl, a single
        # transaction on sqlite) — there is no read-check-append race.
        "repro.campaign.store:CampaignStore.merge",
    )

    # -- obs-naming ----------------------------------------------------
    #: Modules whose span/metric registrations are checked.
    obs_modules: Tuple[str, ...] = ("repro.*",)
    #: Modules allowed to build span/metric names dynamically
    #: (f-strings folding a closed set of dimensions into the name);
    #: static f-string segments are still grammar-checked.
    obs_dynamic_allow: Tuple[str, ...] = (
        # The obs package itself is the API layer: it forwards
        # caller-supplied names, which are checked at the call sites.
        "repro.obs.*",
        # store.<driver>.<op> — driver and op are closed sets baked
        # into the instrumentation wrapper.
        "repro.store.base",
        # service.responses.<status-class> — 2xx/4xx/5xx only.
        "repro.service.api",
        # service.queue.depth.<state> — the four job states.
        "repro.service.queue",
    )
    obs_allow: Tuple[str, ...] = ()

    # -- cli-conventions -----------------------------------------------
    #: Modules containing CLI subcommand handlers.
    cli_modules: Tuple[str, ...] = ("repro.cli",)
    #: Prefix naming a subcommand handler function.
    cli_handler_prefix: str = "_cmd_"
    cli_allow: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def module_matches(self, module: str, patterns: Sequence[str]) -> bool:
        """Whether a dotted module name matches any classification glob."""
        return any(fnmatch.fnmatchcase(module, pattern) for pattern in patterns)

    def site_allowed(
        self, module: str, qualname: str, allow: Sequence[str]
    ) -> bool:
        """Whether ``module``'s ``qualname`` site is allowlisted.

        An entry is either a whole module (``repro.obs.trace``) or a
        ``module:qualname`` pair; a qualname entry matches the function
        itself and everything nested inside it.
        """
        for entry in allow:
            ent_module, _, ent_qual = entry.partition(":")
            if not fnmatch.fnmatchcase(module, ent_module):
                continue
            if not ent_qual:
                return True
            if qualname == ent_qual or qualname.startswith(ent_qual + "."):
                return True
        return False


__all__ = ["LintConfig"]
