"""repro.bench — deterministic performance benchmarking with CI gates.

The flow's runtime story ("as fast as the hardware allows") is only
credible if it is measured and gated.  This subsystem provides:

* :mod:`repro.bench.scenarios` — the benchmark matrix (circuit x scale
  x sigma x solver x executor) and the named, deterministically ordered
  suites (``quick`` / ``default`` / ``full``);
* :mod:`repro.bench.runner` — :class:`BenchRunner`, a timed runner with
  warmup/repeat discipline that records per-phase engine timings
  (:meth:`repro.core.results.FlowResult.phase_seconds`) plus result
  metrics and a plan fingerprint per scenario;
* :mod:`repro.bench.artifact` — the versioned ``BENCH_<label>.json``
  artifact schema (:data:`SCHEMA_VERSION`) with structural validation;
* :mod:`repro.bench.compare` — artifact diffing and the regression
  :func:`gate` that fails CI on configurable slowdown thresholds;
* :mod:`repro.bench.trend` — cross-run per-scenario series accumulated
  out of nightly artifacts into a :mod:`repro.store` backend, built on
  the series core :mod:`repro.store.series` that the campaign trend
  view shares; the series are the plain dict ``bench trend --json``
  prints.

On the CLI this is ``repro bench run | compare | gate | trend``.
"""

from repro.bench.artifact import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    ArtifactError,
    BenchArtifact,
    ScenarioRecord,
    collect_environment,
    default_artifact_path,
    load_artifact,
    validate_artifact_dict,
)
from repro.bench.compare import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_THRESHOLD,
    Comparison,
    GateResult,
    ScenarioDelta,
    compare_artifacts,
    format_comparison,
    gate,
)
from repro.bench.runner import (
    CAMPAIGN_REPLICATES,
    BenchRunner,
    campaign_fingerprint,
    campaign_metrics,
    campaign_spec_for,
    plan_fingerprint,
    result_metrics,
)
from repro.bench.trend import (
    TREND_SCHEMA_VERSION,
    BenchTrendError,
    build_bench_trend,
    format_bench_trend,
    ingest_artifacts,
    open_trend_store,
    point_record,
    validate_trend_record,
)
from repro.bench.scenarios import (
    DISPATCH_CHOICES,
    KIND_CHOICES,
    PARAM_FIELDS,
    SUITE_NAMES,
    Scenario,
    get_suite,
    override_execution,
    scenario_matrix,
    sort_scenarios,
)

__all__ = [
    "ARTIFACT_PREFIX",
    "ArtifactError",
    "BenchArtifact",
    "BenchRunner",
    "BenchTrendError",
    "CAMPAIGN_REPLICATES",
    "Comparison",
    "DEFAULT_MIN_SECONDS",
    "DEFAULT_THRESHOLD",
    "DISPATCH_CHOICES",
    "GateResult",
    "KIND_CHOICES",
    "PARAM_FIELDS",
    "SCHEMA_VERSION",
    "SUITE_NAMES",
    "Scenario",
    "ScenarioDelta",
    "ScenarioRecord",
    "TREND_SCHEMA_VERSION",
    "build_bench_trend",
    "campaign_fingerprint",
    "campaign_metrics",
    "campaign_spec_for",
    "collect_environment",
    "compare_artifacts",
    "default_artifact_path",
    "format_bench_trend",
    "format_comparison",
    "gate",
    "get_suite",
    "ingest_artifacts",
    "load_artifact",
    "open_trend_store",
    "override_execution",
    "plan_fingerprint",
    "point_record",
    "result_metrics",
    "scenario_matrix",
    "sort_scenarios",
    "validate_artifact_dict",
    "validate_trend_record",
]
