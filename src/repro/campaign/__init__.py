"""repro.campaign — resumable multi-circuit experiment campaigns.

The paper's results are tables over a *matrix* of circuits x
process-variation settings x tuning budgets.  This subsystem reproduces
whole paper-style result tables in one command and survives
interruption:

* :mod:`repro.campaign.spec` — declarative campaign specs
  (:class:`CampaignSpec`), deterministically expanded into content-
  fingerprinted :class:`CampaignCell` s with derived per-cell seeds,
  plus round-robin sharding for multi-job CI;
* :mod:`repro.campaign.store` — the checkpointed result store
  (:class:`CampaignStore`): one durable record per completed cell,
  content-addressed by cell fingerprint, held in a pluggable
  :mod:`repro.store` backend addressed by URI (``jsonl:path`` — the
  zero-dep default, tolerant of a kill mid-append — or ``sqlite:path``
  — WAL mode, transactional, safe true-concurrent writers);
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, which maps
  pending cells onto one :mod:`repro.engine` executor, reusing warm
  solver state via the compiled constraint system's fingerprint, and
  resumes exactly where a previous invocation stopped;
* :mod:`repro.campaign.report` — paper-style Table-I aggregation plus a
  baseline-comparison table (every-FF / criticality / random), rendered
  as markdown, plain text or canonical JSON, **bit-identical** between
  interrupted-and-resumed and uninterrupted campaigns;
* :mod:`repro.campaign.pool` — a shared content-addressed result pool
  (:class:`ResultPool`): one global store many specs treat as a cache,
  so overlapping campaigns reuse each other's completed cells;
* :mod:`repro.campaign.compare` — per-cell yield/period/buffer deltas
  between two stores with a threshold gate
  (:func:`gate_comparison`), the campaign sibling of ``bench gate``;
* :mod:`repro.campaign.trend` — cross-run per-cell yield/runtime
  series out of one store's append history, built on the series core
  :mod:`repro.store.series` that the bench trend view shares
  (idempotent ingestion of nightly artifacts); the series are the
  plain dict ``campaign trend --json`` prints.

Distributed aggregation: n CI jobs each run ``--shard i/n`` into their
own store file, and :meth:`CampaignStore.merge` unions the shard stores
into one whose report is byte-identical to an unsharded run's.

The CLI surface is ``repro campaign run|status|report|merge|compare|
trend`` plus ``repro pool gc`` for store retention; every subcommand
addresses stores by the same ``--store``/``--pool`` URIs.
"""

from repro.campaign.compare import (
    DEFAULT_MAX_BUFFER_INCREASE,
    DEFAULT_MAX_YIELD_DROP,
    CampaignComparison,
    CampaignGateResult,
    CellDelta,
    compare_stores,
    format_campaign_comparison,
    gate_comparison,
)
from repro.campaign.pool import (
    ResultPool,
    default_pool_path,
)
from repro.campaign.report import (
    REPORT_SCHEMA_VERSION,
    CampaignReport,
    build_report,
    format_report,
    format_report_markdown,
    format_report_text,
    record_row,
    save_report,
)
from repro.campaign.runner import (
    DISPATCH_CHOICES,
    CampaignProgress,
    CampaignRunner,
    CampaignRunSummary,
    CampaignStatus,
    ProgressCallback,
    campaign_status,
)
from repro.campaign.spec import (
    SPEC_NAMES,
    CampaignCell,
    CampaignError,
    CampaignSpec,
    get_spec,
    load_spec,
    shard_cells,
)
from repro.campaign.store import (
    STORE_SCHEMA_VERSION,
    CampaignStore,
    CampaignStoreError,
    MergeSummary,
    default_store_path,
    deterministic_content,
    make_record,
    open_campaign_backend,
    validate_record,
)
from repro.campaign.trend import (
    build_trend,
    format_trend,
    ingest_stores,
)
from repro.store import (
    GCPlan,
    StoreBackend,
    StoreError,
    StoreURI,
    apply_gc,
    format_gc_plan,
    open_store,
    parse_store_uri,
    plan_gc,
)

__all__ = [
    "DEFAULT_MAX_BUFFER_INCREASE",
    "DEFAULT_MAX_YIELD_DROP",
    "REPORT_SCHEMA_VERSION",
    "SPEC_NAMES",
    "STORE_SCHEMA_VERSION",
    "CampaignCell",
    "CampaignComparison",
    "CampaignError",
    "CampaignGateResult",
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunSummary",
    "CampaignRunner",
    "DISPATCH_CHOICES",
    "CampaignSpec",
    "CampaignStatus",
    "CampaignStore",
    "CampaignStoreError",
    "CellDelta",
    "GCPlan",
    "MergeSummary",
    "ProgressCallback",
    "ResultPool",
    "StoreBackend",
    "StoreError",
    "StoreURI",
    "apply_gc",
    "build_report",
    "build_trend",
    "campaign_status",
    "compare_stores",
    "default_pool_path",
    "default_store_path",
    "deterministic_content",
    "format_campaign_comparison",
    "format_gc_plan",
    "format_report",
    "format_report_markdown",
    "format_report_text",
    "format_trend",
    "gate_comparison",
    "get_spec",
    "ingest_stores",
    "load_spec",
    "make_record",
    "open_campaign_backend",
    "open_store",
    "parse_store_uri",
    "plan_gc",
    "record_row",
    "save_report",
    "shard_cells",
    "validate_record",
]
