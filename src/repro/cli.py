"""Command-line interface.

Installed as the ``repro`` console script, with four subcommands:

``repro list-circuits``
    Show the Table-I benchmark suite with flip-flop and gate counts.

``repro characterize --circuit s9234 --scale 0.2``
    Monte-Carlo characterisation of the un-tuned clock period (``mu_T``,
    ``sigma_T`` and the yields at the paper's three target periods).

``repro insert --circuit s9234 --scale 0.2 --sigma 0``
    Run the full sampling-based buffer insertion and print (or dump as
    JSON) the buffer plan and the yield improvement.

``repro bench run|compare|gate|trend``
    The performance benchmarking subsystem (:mod:`repro.bench`): run a
    scenario suite into a versioned ``BENCH_<label>.json`` artifact,
    diff two artifacts, gate a candidate against a baseline with a
    configurable slowdown threshold (non-zero exit on regression), or
    accumulate nightly artifacts into a cross-run per-scenario timing
    series (``trend --store URI --ingest BENCH_*.json``; a ``--scenario``
    the store does not hold exits 2).

``repro campaign run|status|report|merge|compare|trend``
    The experiment-campaign subsystem (:mod:`repro.campaign`): run a
    declarative circuits x sigmas x budgets matrix into a checkpointed
    store (killing and re-running resumes exactly where it stopped),
    inspect completion, render paper-style result tables against the
    baseline strategies, union the stores of n distributed
    ``--shard i/n`` jobs into one, diff two stores with an optional
    quality gate (exit 1 on regression), and render cross-run per-cell
    yield/runtime trends from a store's append history (a ``--cell`` the
    store does not hold exits 2).  ``run --pool``
    attaches a shared content-addressed result pool so overlapping
    campaigns reuse each other's completed cells.

    Every store argument is a **store URI** (:mod:`repro.store`):
    ``jsonl:path`` (zero-dep default) or ``sqlite:path`` (WAL mode,
    safe concurrent writers); bare paths infer ``jsonl``.  An unknown
    driver or malformed URI exits 2.

``repro pool gc``
    Retention over any content-addressed store (by record age and/or
    count).  Dry-run by default; ``--apply`` executes the plan as one
    atomic rewrite.

``repro serve`` / ``repro work`` / ``repro submit``
    The campaign service (:mod:`repro.service`): a stdlib HTTP/JSON API
    over a durable job queue (``serve``), the worker daemon that leases
    queued jobs and runs them through the campaign runner (``work``),
    and a submit/poll client (``submit``, speaking either directly to a
    queue URI or to a running server over HTTP).  The queue is an
    ordinary store URI (``jsonl:``/``sqlite:``), so its durability and
    concurrency guarantees are the storage tier's.

``repro lint [PATHS]``
    The invariant linter (:mod:`repro.analysis.lint`): AST-based checks
    of the project's own conventions — determinism in result-bearing
    modules, ``sort_keys`` on canonical JSON, transaction discipline on
    store mutations, obs span/metric naming, CLI handler conventions.
    Exit 0 when clean, 1 on findings, 2 on usage/parse errors.  The
    built-in module classification and reasoned allowlists are its only
    configuration; there is no config file, baseline or inline marker.

``repro trace summary|top|export``
    The observability subsystem (:mod:`repro.obs`): render the per-cell/
    per-phase wall-clock breakdown of a trace file, list its slowest
    spans, or export it as Chrome trace-event JSON.  Traces are recorded
    by passing ``--trace [PATH]`` to ``insert``, ``bench run`` or
    ``campaign run``; a run manifest (metrics snapshot) is written next
    to the trace.

Output discipline: machine-readable output (``--json``) goes to stdout
only; progress reporting (``--progress``), trace/manifest notices and
diagnostics go to stderr only, so the streams can be combined freely —
enabling ``--trace`` never changes result bytes or stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from repro._version import __version__


def _integer(text: str) -> int:
    """Argparse type: integer with a clear error instead of a traceback."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    """Argparse type: integer >= 1 with a clear error instead of a traceback."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type: integer >= 0 with a clear error instead of a traceback."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    """Argparse type: finite float with a clear error instead of a traceback."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type: finite float >= 0 with a clear error instead of a traceback."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: finite float > 0 with a clear error instead of a traceback."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _port(text: str) -> int:
    """Argparse type: a TCP port, 0 (ephemeral) to 65535."""
    value = _integer(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _circuit_name(text: str) -> str:
    """Argparse type: a Table-I circuit name, listing the names otherwise.

    The suite is imported when an argument is parsed, not when the parser
    is built.
    """
    from repro.circuit.suite import list_suite_circuits

    names = list_suite_circuits()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown circuit {text!r} (available: {', '.join(names)})"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sampling-based post-silicon clock-tuning buffer insertion (DATE 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-circuits", help="list the Table-I benchmark circuits")

    characterize = subparsers.add_parser(
        "characterize", help="Monte-Carlo clock-period characterisation of one circuit"
    )
    _add_circuit_arguments(characterize)
    characterize.add_argument("--samples", type=_positive_int, default=1000, help="Monte-Carlo samples")

    insert = subparsers.add_parser("insert", help="run the buffer-insertion flow")
    _add_circuit_arguments(insert)
    insert.add_argument("--samples", type=_positive_int, default=500, help="training samples")
    insert.add_argument("--eval-samples", type=_positive_int, default=1000, help="evaluation samples")
    insert.add_argument(
        "--sigma",
        type=_nonnegative_float,
        default=0.0,
        help="target period expressed as mu_T + sigma * sigma_T (paper uses 0, 1, 2)",
    )
    insert.add_argument(
        "--period",
        type=_positive_float,
        default=None,
        help="absolute target period (overrides --sigma)",
    )
    insert.add_argument("--solver", choices=("graph", "milp"), default="graph", help="per-sample solver backend")
    insert.add_argument(
        "--max-buffers",
        type=_positive_int,
        default=None,
        help="cap on physical buffers after grouping",
    )
    from repro.engine import EXECUTOR_CHOICES

    insert.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="processes",
        help="sample-solving engine backend (results are identical across executors)",
    )
    insert.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker count for the parallel executors (default: CPU count)",
    )
    insert.add_argument(
        "--cache-size",
        type=_positive_int,
        default=None,
        help="LRU bound on the engine's per-sample result cache (default: unbounded)",
    )
    insert.add_argument(
        "--progress", action="store_true", help="print per-phase sample progress to stderr"
    )
    insert.add_argument("--json", action="store_true", help="print the result as JSON")
    _add_trace_argument(insert, "insert")

    _add_bench_parsers(subparsers)
    _add_campaign_parsers(subparsers)
    _add_pool_parsers(subparsers)
    _add_service_parsers(subparsers)
    _add_trace_parsers(subparsers)
    _add_lint_parsers(subparsers)
    return parser


def _store_uri_parent() -> argparse.ArgumentParser:
    """Shared ``--store URI`` parent parser for campaign subcommands.

    One definition keeps the flag's name, metavar and help text
    identical across every subcommand that reads or writes a store.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--store",
        default=None,
        metavar="URI",
        help="store URI: jsonl:PATH or sqlite:PATH (bare paths infer jsonl; "
        "default: CAMPAIGN_<name>.jsonl in the CWD)",
    )
    return parent


def _pool_uri_parent(required_default: bool = False) -> argparse.ArgumentParser:
    """Shared ``--pool URI`` parent parser (campaign run + pool commands).

    ``required_default=True`` documents that an absent flag falls back
    to the canonical ``CAMPAIGN_pool.jsonl`` (the pool subcommands);
    for ``campaign run`` an absent flag means "no pool".
    """
    parent = argparse.ArgumentParser(add_help=False)
    fallback = (
        "default: CAMPAIGN_pool.jsonl in the CWD"
        if required_default
        else "bare --pool uses CAMPAIGN_pool.jsonl in the CWD"
    )
    parent.add_argument(
        "--pool",
        nargs="?",
        const="",
        default=None,
        metavar="URI",
        help="shared content-addressed result pool as a store URI: jsonl:PATH or "
        f"sqlite:PATH, bare paths infer jsonl ({fallback})",
    )
    return parent


def _queue_uri_parent() -> argparse.ArgumentParser:
    """Shared ``--queue URI`` parent parser for the service subcommands.

    The queue address is a store URI exactly like ``--store``/``--pool``
    — one definition keeps serve/work/submit agreeing on it.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--queue",
        default=None,
        metavar="URI",
        help="job queue as a store URI: jsonl:PATH or sqlite:PATH "
        "(bare paths infer jsonl)",
    )
    return parent


def _add_trace_argument(parser: argparse.ArgumentParser, label: str) -> None:
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record a JSONL span trace of the run (plus a .manifest.json metrics "
        f"snapshot next to it; bare --trace uses TRACE_{label}.jsonl in the CWD)",
    )


def _add_trace_parsers(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace",
        help="analyse recorded trace files: wall-clock breakdowns, slowest spans, export",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    summary = trace_sub.add_parser(
        "summary", help="per-cell/per-phase wall-clock breakdown of a trace file"
    )
    summary.add_argument("path", help="JSONL trace file (written by --trace)")
    summary.add_argument("--json", action="store_true", help="print the summary as JSON")

    top = trace_sub.add_parser("top", help="the slowest spans of a trace file")
    top.add_argument("path", help="JSONL trace file (written by --trace)")
    top.add_argument(
        "-n", "--count", type=_positive_int, default=10, help="number of spans to show"
    )
    top.add_argument(
        "--name",
        default=None,
        help="only rank spans of this name (e.g. engine.chunk)",
    )
    top.add_argument("--json", action="store_true", help="print the spans as JSON")

    export = trace_sub.add_parser(
        "export", help="convert a trace to Chrome trace-event JSON (chrome://tracing)"
    )
    export.add_argument("path", help="JSONL trace file (written by --trace)")
    export.add_argument(
        "--out", default=None, help="write the export here instead of stdout"
    )


def _add_lint_parsers(subparsers) -> None:
    from repro.analysis.lint import RULE_NAMES

    lint = subparsers.add_parser(
        "lint",
        help="static analysis of the repo's own invariants (determinism, "
        "canonical JSON, transaction discipline, obs naming, CLI conventions)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        choices=sorted(RULE_NAMES),
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable; default: all rules); "
        f"available: {', '.join(RULE_NAMES)}",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list the rule catalogue and exit"
    )
    lint.add_argument(
        "--json", action="store_true", help="print the findings as canonical JSON"
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        LintError,
        LintRunner,
        RULE_REGISTRY,
        build_rules,
        format_findings,
    )

    try:
        if args.list_rules:
            for name in sorted(RULE_REGISTRY):
                print(f"{name:<24} {RULE_REGISTRY[name].description}")
            return 0
        result = LintRunner(rules=build_rules(args.rule)).run(args.paths)
        if args.json:
            print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_findings(result))
        return 0 if not result.findings else 1
    except (LintError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _shard(text: str) -> tuple:
    """Argparse type for ``--shard i/n`` (1-based index)."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INDEX/COUNT (e.g. 1/3), got {text!r}"
        ) from None
    if count < 1 or not (1 <= index <= count):
        raise argparse.ArgumentTypeError(
            f"shard index must be in 1..{max(count, 1)}, got {text!r}"
        )
    return (index - 1, count)


def _add_campaign_parsers(subparsers) -> None:
    from repro.campaign import DISPATCH_CHOICES, SPEC_NAMES
    from repro.engine import EXECUTOR_CHOICES

    campaign = subparsers.add_parser(
        "campaign",
        help="resumable multi-circuit experiment campaigns: run matrices, report tables",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    store_parent = _store_uri_parent()

    def add_spec_arguments(sub):
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--name", choices=SPEC_NAMES, help="built-in campaign spec"
        )
        group.add_argument("--spec", help="path to a JSON campaign spec file")

    run = campaign_sub.add_parser(
        "run",
        help="run (or resume) every pending cell of a campaign",
        parents=[store_parent, _pool_uri_parent()],
    )
    add_spec_arguments(run)
    run.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="processes",
        help="engine backend shared by all cells (results are identical across executors)",
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker count for the parallel executors (default: CPU count)",
    )
    run.add_argument(
        "--shard",
        type=_shard,
        default=(0, 1),
        metavar="INDEX/COUNT",
        help="run only this round-robin shard of the cell matrix (e.g. 1/3)",
    )
    run.add_argument(
        "--max-cells",
        type=_positive_int,
        default=None,
        help="execute at most this many pending cells, then stop (time-boxed CI legs)",
    )
    run.add_argument(
        "--dispatch",
        choices=DISPATCH_CHOICES,
        default="batched",
        help="cell dispatch strategy: 'batched' gangs same-design cells over one "
        "warm worker pool, 'sequential' runs them one by one (results are "
        "bit-identical; only wall clock differs)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="print per-cell campaign and per-phase engine progress to stderr",
    )
    run.add_argument("--json", action="store_true", help="print the run summary as JSON")
    _add_trace_argument(run, "campaign-run")

    status = campaign_sub.add_parser(
        "status",
        help="show how much of a campaign is completed in its store",
        parents=[store_parent],
    )
    add_spec_arguments(status)
    status.add_argument("--json", action="store_true", help="print the status as JSON")

    report = campaign_sub.add_parser(
        "report",
        help="aggregate the store into paper-style result tables",
        parents=[store_parent],
    )
    add_spec_arguments(report)
    report.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="report rendering (markdown/json are bit-identical across resumed runs)",
    )
    report.add_argument(
        "--out", default=None, help="also write the report to this file"
    )

    merge = campaign_sub.add_parser(
        "merge",
        help="union N shard stores into one (conflicting results are an error)",
    )
    merge.add_argument(
        "output", help="merged store to write (store URI; atomically replaced)"
    )
    merge.add_argument(
        "inputs", nargs="+", help="shard stores to union (store URIs, drivers may mix)"
    )
    merge.add_argument(
        "--json", action="store_true", help="print the merge summary as JSON"
    )

    compare = campaign_sub.add_parser(
        "compare",
        help="per-cell yield/period/buffer deltas between two campaign stores",
    )
    compare.add_argument("old", help="old (baseline) campaign store (store URI)")
    compare.add_argument("new", help="new (candidate) campaign store (store URI)")
    compare.add_argument(
        "--gate",
        action="store_true",
        help="fail (exit 1) when any cell regressed beyond the thresholds",
    )
    from repro.campaign import DEFAULT_MAX_BUFFER_INCREASE, DEFAULT_MAX_YIELD_DROP

    compare.add_argument(
        "--max-yield-drop",
        type=_nonnegative_float,
        default=DEFAULT_MAX_YIELD_DROP,
        help="tolerated tuned-yield drop in percentage points (inclusive)",
    )
    compare.add_argument(
        "--max-buffer-increase",
        type=_nonnegative_int,
        default=DEFAULT_MAX_BUFFER_INCREASE,
        help="tolerated per-cell buffer-count increase (inclusive)",
    )
    compare.add_argument(
        "--json", action="store_true", help="print the comparison/verdict as JSON"
    )

    trend = campaign_sub.add_parser(
        "trend",
        help="cross-run per-cell yield/runtime series from a store's append history",
        parents=[store_parent],
    )
    trend.add_argument(
        "--ingest",
        action="append",
        default=None,
        metavar="URI",
        help="fold this store's records into --store first (idempotent; "
        "repeatable — one flag per nightly artifact)",
    )
    trend.add_argument(
        "--cell", default=None, metavar="CELL_ID", help="restrict the series to one cell"
    )
    trend.add_argument("--json", action="store_true", help="print the trend as JSON")


def _add_pool_parsers(subparsers) -> None:
    pool = subparsers.add_parser(
        "pool",
        help="shared result-pool maintenance: retention/garbage collection",
    )
    pool_sub = pool.add_subparsers(dest="pool_command", required=True)

    gc = pool_sub.add_parser(
        "gc",
        help="apply a retention policy to a pool/store (dry-run unless --apply)",
        parents=[_pool_uri_parent(required_default=True)],
    )
    gc.add_argument(
        "--max-age-days",
        type=_nonnegative_float,
        default=None,
        help="drop records completed longer ago than this many days",
    )
    gc.add_argument(
        "--keep",
        type=_positive_int,
        default=None,
        metavar="N",
        help="keep only the N most recently completed records",
    )
    gc.add_argument(
        "--apply",
        action="store_true",
        help="execute the plan (default: dry-run that only prints it)",
    )
    gc.add_argument("--json", action="store_true", help="print the plan as JSON")


def _add_service_parsers(subparsers) -> None:
    from repro.campaign import DISPATCH_CHOICES, SPEC_NAMES
    from repro.engine import EXECUTOR_CHOICES

    queue_parent = _queue_uri_parent()

    serve = subparsers.add_parser(
        "serve",
        help="HTTP/JSON API over a campaign job queue (submit/status/report/compare)",
        parents=[queue_parent, _pool_uri_parent()],
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--port", type=_port, default=8321, help="port to bind (0: ephemeral)"
    )

    work = subparsers.add_parser(
        "work",
        help="worker daemon: lease queued jobs and run them through the campaign runner",
        parents=[queue_parent, _pool_uri_parent()],
    )
    work.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="processes",
        help="engine backend for every job (results are identical across executors)",
    )
    work.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker count for the parallel executors (default: CPU count)",
    )
    work.add_argument(
        "--dispatch",
        choices=DISPATCH_CHOICES,
        default="batched",
        help="cell dispatch strategy passed to the campaign runner",
    )
    work.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="identity recorded in lease events (default: <hostname>:<pid>)",
    )
    work.add_argument(
        "--lease",
        type=_positive_float,
        default=60.0,
        metavar="SECONDS",
        help="lease duration; a job whose worker misses heartbeats this long is re-leased",
    )
    work.add_argument(
        "--poll",
        type=_positive_float,
        default=2.0,
        metavar="SECONDS",
        help="idle sleep between claim attempts",
    )
    work.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        help="process at most this many jobs, then exit",
    )
    work.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit once every job is terminal (done/failed) instead of polling "
        "forever; keeps waiting for another worker's lease to expire",
    )
    work.add_argument(
        "--progress",
        action="store_true",
        help="print per-job and per-cell progress to stderr",
    )
    work.add_argument(
        "--json", action="store_true", help="print the worker summary as JSON"
    )
    _add_trace_argument(work, "work")

    submit = subparsers.add_parser(
        "submit",
        help="submit a campaign to a queue (directly or via a running server) and optionally wait",
        parents=[queue_parent, _pool_uri_parent()],
    )
    submit.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="submit over HTTP to a running `repro serve` instead of --queue",
    )
    spec_group = submit.add_mutually_exclusive_group(required=True)
    spec_group.add_argument("--name", choices=SPEC_NAMES, help="built-in campaign spec")
    spec_group.add_argument("--spec", help="path to a JSON campaign spec file")
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job reaches a terminal state (exit 1 on failure/timeout)",
    )
    submit.add_argument(
        "--timeout",
        type=_positive_float,
        default=600.0,
        metavar="SECONDS",
        help="--wait deadline",
    )
    submit.add_argument(
        "--poll",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="--wait poll interval",
    )
    submit.add_argument(
        "--json", action="store_true", help="print the job view as JSON"
    )


def _add_bench_parsers(subparsers) -> None:
    from repro.bench import DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD, SUITE_NAMES
    from repro.engine import EXECUTOR_CHOICES

    bench = subparsers.add_parser(
        "bench", help="performance benchmarking: run suites, compare artifacts, gate CI"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser(
        "run", help="run a benchmark suite into a BENCH_<label>.json artifact"
    )
    run.add_argument("--suite", choices=SUITE_NAMES, default="quick", help="scenario suite")
    run.add_argument("--label", default=None, help="artifact label (default: the suite name)")
    run.add_argument("--out-dir", default=".", help="directory the artifact is written to")
    run.add_argument("--warmup", type=int, default=1, help="discarded warmup runs per scenario")
    run.add_argument("--repeat", type=_positive_int, default=1, help="timed runs per scenario")
    run.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=None,
        help="override the executor of every scenario (changes scenario ids)",
    )
    run.add_argument(
        "--jobs", type=_positive_int, default=None, help="override the worker count of every scenario"
    )
    run.add_argument(
        "--progress", action="store_true", help="print per-phase sample progress to stderr"
    )
    run.add_argument("--json", action="store_true", help="print the artifact JSON to stdout")
    _add_trace_argument(run, "bench-run")

    compare = bench_sub.add_parser("compare", help="diff two benchmark artifacts")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument("--json", action="store_true", help="print the comparison as JSON")

    gate = bench_sub.add_parser(
        "gate", help="fail (exit 1) when the candidate regressed beyond the threshold"
    )
    gate.add_argument("baseline", help="baseline BENCH_*.json")
    gate.add_argument("candidate", help="candidate BENCH_*.json")
    gate.add_argument(
        "--threshold",
        type=_positive_float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated candidate/baseline runtime ratio (inclusive)",
    )
    gate.add_argument(
        "--phase-threshold",
        type=_positive_float,
        default=None,
        help="optional per-phase ratio ceiling (step1_train, prune_resolve, ...)",
    )
    gate.add_argument(
        "--min-seconds",
        type=_nonnegative_float,
        default=DEFAULT_MIN_SECONDS,
        help="noise floor: scenarios where both sides run faster than this always pass "
        "(raise for cross-machine gating of sub-second scenarios)",
    )
    gate.add_argument("--json", action="store_true", help="print the verdict as JSON")

    trend = bench_sub.add_parser(
        "trend",
        help="cross-run per-scenario timing series accumulated from BENCH_*.json artifacts",
    )
    trend.add_argument(
        "--store",
        required=True,
        metavar="URI",
        help="trend store URI (jsonl:path or sqlite:path; bare paths infer jsonl)",
    )
    trend.add_argument(
        "--ingest",
        action="append",
        default=None,
        metavar="BENCH_JSON",
        help="fold this artifact's scenarios into --store first (idempotent; "
        "repeatable — one flag per nightly artifact)",
    )
    trend.add_argument(
        "--scenario",
        default=None,
        metavar="SCENARIO_ID",
        help="restrict the series to one scenario id",
    )
    trend.add_argument("--json", action="store_true", help="print the trend as JSON")


def _add_circuit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circuit", type=_circuit_name, default="s9234", help="Table-I circuit name"
    )
    parser.add_argument(
        "--scale", type=_positive_float, default=0.2, help="circuit size scale factor"
    )
    parser.add_argument(
        "--seed", type=_nonnegative_int, default=1, help="seed for circuit generation and sampling"
    )


def _cmd_list_circuits() -> int:
    from repro.circuit.suite import CIRCUIT_SPECS

    print(f"{'circuit':<15}{'flip-flops':>12}{'gates':>10}{'source':>10}")
    for spec in CIRCUIT_SPECS.values():
        print(f"{spec.name:<15}{spec.n_flip_flops:>12}{spec.n_gates:>10}{spec.source:>10}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.circuit.suite import build_suite_circuit
    from repro.timing import sample_min_periods

    design = build_suite_circuit(args.circuit, scale=args.scale, seed=args.seed)
    analysis = sample_min_periods(design, n_samples=args.samples, rng=args.seed)
    stats = design.netlist.stats()
    print(f"circuit {args.circuit} (scale {args.scale:g}): "
          f"{stats['flip_flops']} flip-flops, {stats['gates']} gates")
    print(f"mu_T = {analysis.mean:.3f}, sigma_T = {analysis.std:.3f}")
    for sigma in (0.0, 1.0, 2.0):
        period = analysis.target_period(sigma)
        print(
            f"  T = mu_T + {sigma:g} sigma ({period:.3f}): "
            f"yield without buffers {100 * analysis.yield_at(period):.2f} %"
        )
    return 0


def _cmd_insert(args: argparse.Namespace) -> int:
    from repro.circuit.suite import build_suite_circuit
    from repro.core import BufferInsertionFlow, FlowConfig
    from repro.engine import LogProgress

    design = build_suite_circuit(args.circuit, scale=args.scale, seed=args.seed)
    config = FlowConfig(
        n_samples=args.samples,
        n_eval_samples=args.eval_samples,
        seed=args.seed,
        target_sigma=args.sigma,
        target_period=args.period,
        solver=args.solver,
        max_buffers=args.max_buffers,
        executor=args.executor,
        jobs=args.jobs,
        cache_size=args.cache_size,
    )
    progress = LogProgress() if args.progress else None
    result = BufferInsertionFlow(design, config, progress=progress).run()

    if args.json:
        payload = {
            "circuit": args.circuit,
            "scale": args.scale,
            "summary": result.summary(),
            "buffers": [b.as_dict() for b in result.plan.buffers],
            "groups": result.plan.groups,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    summary = result.summary()
    print(f"circuit           : {args.circuit} (scale {args.scale:g})")
    print(f"target period     : {summary['target_period']:.3f} "
          f"(mu_T {summary['mu_period']:.3f}, sigma_T {summary['sigma_period']:.3f})")
    print(f"buffers (Nb)      : {summary['n_buffers']} "
          f"({summary['n_physical_buffers']} physical after grouping)")
    print(f"average range (Ab): {summary['average_range_steps']:.2f} steps")
    print(f"yield             : {100 * summary['original_yield']:.2f} % -> "
          f"{100 * summary['improved_yield']:.2f} % "
          f"(Yi = {100 * summary['yield_improvement']:.2f} points)")
    print(f"runtime           : {summary['runtime_seconds']:.1f} s")
    for buffer in result.plan.buffers:
        print(
            f"  {buffer.flip_flop:>12}: [{buffer.lower:+.3f}, {buffer.upper:+.3f}] "
            f"step {buffer.step:.3f}, used {buffer.usage_count}x, group {buffer.group}"
        )
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import BenchRunner, default_artifact_path, get_suite, override_execution
    from repro.engine import LogProgress

    scenarios = override_execution(
        get_suite(args.suite), executor=args.executor, jobs=args.jobs
    )
    progress = LogProgress() if args.progress else None
    runner = BenchRunner(warmup=args.warmup, repeat=args.repeat, progress=progress)
    label = args.label or args.suite
    # Fail fast on an unwritable destination — a full suite run can take
    # minutes and its measurements must not be discarded at save time.
    os.makedirs(args.out_dir, exist_ok=True)
    if not os.access(args.out_dir, os.W_OK):
        raise OSError(f"output directory {args.out_dir!r} is not writable")
    print(f"[bench] running suite {args.suite!r} ({len(scenarios)} scenarios, "
          f"warmup {args.warmup}, repeat {args.repeat})", file=sys.stderr, flush=True)
    artifact = runner.run_scenarios(scenarios, label=label, suite=args.suite)
    path = artifact.save(default_artifact_path(label, args.out_dir))
    print(f"[bench] wrote {path}", file=sys.stderr, flush=True)

    if args.json:
        print(artifact.to_json(), end="")
        return 0
    print(f"artifact  : {path}")
    print(f"suite     : {args.suite} ({len(artifact.records)} scenarios)")
    print(f"total     : {artifact.total_seconds():.3f} s (best repeats)")
    for record in artifact.records:
        phases = ", ".join(
            f"{phase} {seconds:.3f}s"
            for phase, seconds in record.phase_seconds.items()
            if seconds > 0.0
        )
        print(f"  {record.scenario.scenario_id:<60} {record.best_seconds:>8.3f} s  [{phases}]")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare_artifacts, format_comparison, load_artifact

    comparison = compare_artifacts(
        load_artifact(args.baseline), load_artifact(args.candidate)
    )
    if args.json:
        print(json.dumps(comparison.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_comparison(comparison))
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from repro.bench import gate, load_artifact

    verdict = gate(
        load_artifact(args.baseline),
        load_artifact(args.candidate),
        threshold=args.threshold,
        phase_threshold=args.phase_threshold,
        min_seconds=args.min_seconds,
    )
    if args.json:
        print(json.dumps(verdict.as_dict(), indent=2, sort_keys=True))
    else:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"bench gate {status} (threshold {verdict.threshold:g}x)")
        for failure in verdict.failures:
            print(f"  regression: {failure}")
    return 0 if verdict.passed else 1


def _cmd_bench_trend(args: argparse.Namespace) -> int:
    from repro.bench import (
        build_bench_trend,
        format_bench_trend,
        ingest_artifacts,
        open_trend_store,
    )

    store = open_trend_store(args.store)
    if args.ingest:
        n_new = ingest_artifacts(store, list(args.ingest))
        print(
            f"[bench] ingested {n_new} new point(s) from "
            f"{len(args.ingest)} artifact(s) into {store.uri}",
            file=sys.stderr,
            flush=True,
        )
    trend = build_bench_trend(store, scenario_id=args.scenario)
    if args.json:
        print(json.dumps(trend, indent=2, sort_keys=True))
        return 0
    print(format_bench_trend(trend), end="")
    return 0


def _resolve_campaign(args: argparse.Namespace):
    """The (spec, store) pair a campaign subcommand operates on.

    ``--store`` is a store URI (``jsonl:``/``sqlite:``; bare paths
    infer jsonl); without it the campaign's canonical JSONL path is
    used.  A malformed URI or unknown driver raises ``StoreError``
    (a ``CampaignError``), which the campaign handler exits 2 on.
    """
    from repro.campaign import CampaignStore, default_store_path, get_spec, load_spec

    spec = get_spec(args.name) if args.name else load_spec(args.spec)
    store_uri = args.store or default_store_path(spec.name)
    return spec, CampaignStore.open(store_uri)


def _resolve_pool(uri: Optional[str]):
    """A :class:`ResultPool` for ``--pool`` (``None``/empty: default path)."""
    from repro.campaign import ResultPool, default_pool_path

    return ResultPool(uri or default_pool_path())


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner

    spec, store = _resolve_campaign(args)
    shard_index, shard_count = args.shard
    pool = None
    if args.pool is not None:
        pool = _resolve_pool(args.pool)
    runner = CampaignRunner(
        spec,
        store,
        executor=args.executor,
        jobs=args.jobs,
        shard_index=shard_index,
        shard_count=shard_count,
        max_cells=args.max_cells,
        pool=pool,
        progress=args.progress,
        dispatch=args.dispatch,
    )
    summary = runner.run()
    if args.json:
        payload = dict(summary.as_dict())
        payload.update({"campaign": spec.name, "store": store.path})
        if pool is not None:
            payload["pool"] = pool.path
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"campaign  : {spec.name} (shard {shard_index + 1}/{shard_count})")
    print(f"store     : {store.path}")
    if pool is not None:
        print(f"pool      : {pool.path} ({summary.n_pool_reused} cells reused)")
    print(f"cells     : {summary.n_cells} in shard, "
          f"{summary.n_completed_before} already complete")
    print(f"executed  : {summary.n_run} ({summary.n_remaining} still pending)")
    print(f"runtime   : {summary.seconds:.1f} s")
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore

    summary = CampaignStore.merge(args.output, args.inputs)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
        return 0
    print(f"merged    : {summary.output}")
    print(f"records   : {summary.n_records} from {summary.n_inputs} store(s) "
          f"({summary.n_duplicates} duplicate(s) collapsed)")
    for path, count in summary.per_input:
        print(f"  {path}: {count} record(s)")
    return 0


def _cmd_campaign_compare(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignStore,
        CampaignStoreError,
        compare_stores,
        format_campaign_comparison,
        gate_comparison,
    )

    old, new = CampaignStore.open(args.old), CampaignStore.open(args.new)
    for store in (old, new):
        if not store.exists():
            raise CampaignStoreError(f"campaign store {store.path!r} does not exist")
    comparison = compare_stores(old, new)
    if not args.gate:
        if args.json:
            print(json.dumps(comparison.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_campaign_comparison(comparison))
        return 0
    verdict = gate_comparison(
        comparison,
        max_yield_drop=args.max_yield_drop,
        max_buffer_increase=args.max_buffer_increase,
    )
    if args.json:
        print(json.dumps(verdict.as_dict(), indent=2, sort_keys=True))
    else:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"campaign gate {status} "
              f"(max yield drop {verdict.max_yield_drop:g} points, "
              f"max buffer increase +{verdict.max_buffer_increase})")
        print(format_campaign_comparison(comparison))
        for failure in verdict.failures:
            print(f"  regression: {failure}")
    return 0 if verdict.passed else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_status

    spec, store = _resolve_campaign(args)
    status = campaign_status(spec, store)
    if args.json:
        payload = dict(status.as_dict())
        payload["store"] = store.path
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"campaign  : {status.name}")
    print(f"store     : {store.path}")
    print(f"completed : {status.n_completed}/{status.n_cells} cells")
    if status.cell_seconds:
        print(f"recorded  : {status.total_recorded_seconds:.1f} s over "
              f"{len(status.cell_seconds)} completed cell(s)")
    if status.pending_cell_ids:
        print("pending   :")
        for cell_id in status.pending_cell_ids:
            print(f"  {cell_id}")
    if status.stale_fingerprints:
        print(f"stale     : {len(status.stale_fingerprints)} record(s) no longer in the spec")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import build_report, format_report

    spec, store = _resolve_campaign(args)
    payload = format_report(build_report(spec, store), fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"[campaign] wrote {args.out}", file=sys.stderr, flush=True)
    print(payload, end="")
    return 0


def _cmd_campaign_trend(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignStore,
        CampaignStoreError,
        build_trend,
        format_trend,
        ingest_stores,
    )

    if not args.store:
        raise CampaignStoreError("campaign trend needs --store URI (no spec to infer it from)")
    store = CampaignStore.open(args.store)
    if args.ingest:
        n_new = ingest_stores(store, list(args.ingest))
        print(
            f"[campaign] ingested {n_new} new record(s) from "
            f"{len(args.ingest)} store(s) into {store.uri}",
            file=sys.stderr,
            flush=True,
        )
    trend = build_trend(store, cell_id=args.cell)
    if args.json:
        print(json.dumps(trend, indent=2, sort_keys=True))
        return 0
    print(format_trend(trend), end="")
    return 0


def _cmd_pool_gc(args: argparse.Namespace) -> int:
    from repro.campaign import apply_gc, format_gc_plan, plan_gc
    from repro.campaign.store import open_campaign_backend
    from repro.campaign.pool import default_pool_path

    backend = open_campaign_backend(args.pool or default_pool_path())
    plan = plan_gc(backend, max_age_days=args.max_age_days, keep_newest=args.keep)
    applied = False
    if args.apply:
        apply_gc(backend, plan)
        applied = True
    if args.json:
        payload = dict(plan.as_dict())
        payload["applied"] = applied
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_gc_plan(plan, applied=applied))
    if not applied and plan.n_dropped:
        print("dry run   : pass --apply to execute this plan")
    return 0


def _resolve_pool_uri(pool_arg: Optional[str]) -> Optional[str]:
    """Pool URI for the service commands (``None``: no pool; bare: default)."""
    if pool_arg is None:
        return None
    if pool_arg:
        return pool_arg
    from repro.campaign import default_pool_path

    return default_pool_path()


def _require_queue(args: argparse.Namespace) -> str:
    from repro.service import ServiceError

    if not args.queue:
        raise ServiceError(f"repro {args.command} needs --queue URI")
    return args.queue


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.api import serve

    queue_uri = _require_queue(args)

    def _terminate(signum, frame):  # noqa: ARG001 - signal contract
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        serve(
            queue_uri,
            host=args.host,
            port=args.port,
            pool=_resolve_pool_uri(args.pool),
        )
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr, flush=True)
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    import signal

    from repro.service import CampaignWorker, JobQueue

    queue_uri = _require_queue(args)
    worker = CampaignWorker(
        JobQueue.open(queue_uri),
        worker_id=args.worker_id,
        executor=args.executor,
        jobs=args.jobs,
        dispatch=args.dispatch,
        pool=_resolve_pool_uri(args.pool),
        lease_seconds=args.lease,
        poll_seconds=args.poll,
        progress=args.progress,
    )

    def _stop(signum, frame):  # noqa: ARG001 - signal contract
        worker.stop_event.set()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(
        f"[work] worker {worker.worker_id} polling {queue_uri} "
        f"(lease {worker.lease_seconds:g} s)",
        file=sys.stderr,
        flush=True,
    )
    summary = worker.run(max_jobs=args.max_jobs, exit_when_idle=args.exit_when_idle)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"worker    : {summary.worker}")
        print(f"jobs      : {summary.n_jobs} "
              f"({summary.n_done} done, {summary.n_failed} failed)")
    return 0 if summary.n_failed == 0 else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    if bool(args.url) == bool(args.queue):
        raise ServiceError("repro submit needs exactly one of --queue or --url")
    if args.name:
        payload = {"name": args.name}
    else:
        from repro.campaign import load_spec

        payload = {"spec": load_spec(args.spec).as_dict()}
    pool_uri = _resolve_pool_uri(args.pool)
    if pool_uri is not None:
        payload["pool"] = pool_uri

    if args.url:
        job, created, failure = _submit_http(args, payload)
    else:
        job, created, failure = _submit_direct(args, payload)

    if args.json:
        print(json.dumps({"job": job, "created": created}, indent=2, sort_keys=True))
    else:
        print(f"job       : {job['fingerprint']} ({job['name']})")
        print(f"state     : {job['state']}")
        print(f"store     : {job['store']}")
        print(f"created   : {'yes' if created else 'no (deduplicated)'}")
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def _submit_http(args: argparse.Namespace, payload: dict) -> tuple:
    """Submit over HTTP; returns ``(job_dict, created, failure_message)``."""
    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    result = client.submit(payload)
    job, created = dict(result["job"]), bool(result.get("created"))
    if not args.wait:
        return job, created, None
    try:
        status = client.wait(
            job["fingerprint"], timeout=args.timeout, poll_seconds=args.poll
        )
        return dict(status["job"]), created, None
    except ServiceClientError as error:
        refreshed = client.job(job["fingerprint"]).get("job", job)
        return dict(refreshed), created, str(error)


def _submit_direct(args: argparse.Namespace, payload: dict) -> tuple:
    """Submit straight to the queue store; same contract as ``_submit_http``."""
    import time as _time

    from repro.service import JobQueue
    from repro.service.queue import spec_from_payload

    queue = JobQueue.open(args.queue)
    spec = spec_from_payload(payload)
    view, created = queue.submit(spec, pool=payload.get("pool"))
    if not args.wait:
        return view.as_dict(), created, None
    deadline = _time.monotonic() + args.timeout
    while True:
        view = queue.require(view.fingerprint)
        if view.state == "done":
            return view.as_dict(), created, None
        if view.state == "failed":
            return view.as_dict(), created, f"job {view.fingerprint} failed: {view.error}"
        if _time.monotonic() >= deadline:
            return (
                view.as_dict(),
                created,
                f"job {view.fingerprint} still {view.state!r} after {args.timeout:g} s",
            )
        _time.sleep(args.poll)


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignError, StoreError

    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "work":
            return _cmd_work(args)
        if args.command == "submit":
            return _cmd_submit(args)
    except (CampaignError, StoreError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignError, StoreError

    try:
        if args.campaign_command == "run":
            return _cmd_campaign_run(args)
        if args.campaign_command == "status":
            return _cmd_campaign_status(args)
        if args.campaign_command == "report":
            return _cmd_campaign_report(args)
        if args.campaign_command == "merge":
            return _cmd_campaign_merge(args)
        if args.campaign_command == "compare":
            return _cmd_campaign_compare(args)
        if args.campaign_command == "trend":
            return _cmd_campaign_trend(args)
    except (CampaignError, StoreError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_pool(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignError, StoreError

    try:
        if args.pool_command == "gc":
            return _cmd_pool_gc(args)
    except (CampaignError, StoreError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        events = obs.load_trace(args.path)
        if args.trace_command == "summary":
            summary = obs.summarize_trace(events)
            if args.json:
                print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
            else:
                print(obs.format_summary(summary))
            return 0
        if args.trace_command == "top":
            spans = obs.top_spans(events, count=args.count, name=args.name)
            if args.json:
                print(json.dumps(spans, indent=2, sort_keys=True))
            else:
                print(obs.format_top(spans))
            return 0
        if args.trace_command == "export":
            text = json.dumps(obs.export_chrome(events), indent=2, sort_keys=True)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                print(f"[trace] wrote {args.out}", file=sys.stderr, flush=True)
            else:
                print(text)
            return 0
    except (obs.TraceError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import ArtifactError

    try:
        if args.bench_command == "run":
            return _cmd_bench_run(args)
        if args.bench_command == "compare":
            return _cmd_bench_compare(args)
        if args.bench_command == "gate":
            return _cmd_bench_gate(args)
        if args.bench_command == "trend":
            return _cmd_bench_trend(args)
    except (ArtifactError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "list-circuits":
        return _cmd_list_circuits()
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "insert":
        return _cmd_insert(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "pool":
        return _cmd_pool(args)
    if args.command in ("serve", "work", "submit"):
        return _cmd_service(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def _requested_trace_path(args: argparse.Namespace) -> Optional[str]:
    """The trace file a ``--trace`` flag asks for (``None``: no tracing).

    A bare ``--trace`` resolves to a canonical per-command default
    (``TRACE_insert.jsonl``, ``TRACE_bench-run.jsonl``,
    ``TRACE_campaign-run.jsonl``) in the working directory.
    """
    path = getattr(args, "trace", None)
    if path is None:
        return None
    if path:
        return path
    from repro.obs import default_trace_path

    label = args.command
    if args.command == "bench":
        label = "bench-run"
    elif args.command == "campaign":
        label = "campaign-run"
    return default_trace_path(label)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns the process exit code).

    Tracing is a ``main()`` concern, not a per-command one: when the
    parsed arguments carry ``--trace``, the run is bracketed by
    :func:`repro.obs.start_run` / :func:`repro.obs.finish_run`, so every
    subcommand gets the same trace + manifest lifecycle (and a crash
    still finalizes whatever was recorded).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = _requested_trace_path(args)
    if trace_path is None:
        return _dispatch(parser, args)

    from repro import obs

    obs.start_run(trace_path)
    try:
        return _dispatch(parser, args)
    finally:
        outputs = obs.finish_run(
            command=list(argv) if argv is not None else list(sys.argv[1:])
        )
        if outputs is not None:
            print(
                f"[obs] wrote trace {outputs.trace_path} ({outputs.n_events} events) "
                f"and manifest {outputs.manifest_path}",
                file=sys.stderr,
                flush=True,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
