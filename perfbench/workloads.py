"""One benchmark workload in one process: set up, measure, check.

Started by ``perfbench/run.py``, never by hand.  The process prints
protocol lines prefixed with ``@bench `` on stdout: ``ready`` once set-up
is done (the parent times fresh interpreter to that line), ``reference``
with the host-speed factor of that moment, then ``result`` with the
measured metrics and the outcome of the output checks.  With
``--setup-only`` it exits after ``reference``.

With ``--trace 1`` the layer functions are wrapped (see ``layers.py``)
during set-up and during the second half of the measured rounds; the
first half runs unwrapped, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers

PROTOCOL_PREFIX = "@bench "


def emit(event: str, **payload: object) -> None:
    print(PROTOCOL_PREFIX + json.dumps({"event": event, **payload}, sort_keys=True), flush=True)


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 31-bit seed for one input of a workload."""
    text = "|".join([str(int(seed))] + [str(part) for part in parts])
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) & 0x7FFFFFFF


@dataclass
class OpResult:
    """What one measured operation did; ``start`` and ``wall`` delimit
    its measured window on the ``time.perf_counter`` clock."""

    start: float
    wall: float
    plans: int
    latencies: List[float]
    attempted: int = 1
    failed: int = 0
    #: Host-speed factor of the operation, see :func:`reference_seconds`.
    scale: float = 1.0

    def normalised(self) -> "OpResult":
        """The operation's times at the reference host speed."""
        return replace(self, wall=self.wall * self.scale,
                       latencies=[value * self.scale for value in self.latencies], scale=1.0)


class Workload:
    """Interface of the four workloads.

    ``round()`` lists the operation labels of one round; rounds repeat
    until the measuring time is used up, so every label runs equally
    often.  ``entry_layers`` names the layer spans that *are* the
    operation, so trace coverage counts what lies below them.
    """

    entry_layers: Tuple[str, ...] = ()

    def __init__(self, workdir: Path, jobs: int) -> None:
        self.workdir = workdir
        self.jobs = jobs

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> List[object]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run before measuring; lazy imports and first-call costs land here."""

    def run_op(self, label: object) -> OpResult:
        raise NotImplementedError

    def check(self) -> Tuple[int, int, List[str]]:
        """Output checks after measuring: ``(attempted, failed, messages)``."""
        raise NotImplementedError

    def quality(self) -> Tuple[float, float]:
        """Mean ``(improved_yield, n_buffers)`` over the plans of one round."""
        raise NotImplementedError

    def aliases(self, ops: List[OpResult]) -> Dict[str, Tuple[float, str]]:
        """The workload's end-to-end metrics under their descriptive names."""
        return {}

    def close(self) -> None:
        """Stop whatever set-up started."""


#: Flow seeds per run whose yield is re-evaluated outside the engine;
#: redrawing a large evaluation batch costs about as much as the flow.
REEVALUATED_SEEDS = 2


def plan_fingerprint(plan) -> str:
    return hashlib.sha256(
        json.dumps(plan.as_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


class FlowWorkload(Workload):
    """``BufferInsertionFlow.run`` repeated on one built design.

    The design is pinned (its seed is a constant), because flow cost
    varies several-fold between generated designs; the workload seed
    picks the Monte-Carlo seeds of the ``n_seeds`` flows of a round.
    """

    def __init__(self, seed, workdir, jobs, *, circuit, scale, design_seed,
                 sigma, n_samples, n_eval_samples, n_seeds) -> None:
        super().__init__(workdir, jobs)
        self.circuit = circuit
        self.scale = scale
        self.design_seed = design_seed
        self.sigma = sigma
        self.n_samples = n_samples
        self.n_eval_samples = n_eval_samples
        self.flow_seeds = [derive_seed(seed, "flow", i) for i in range(n_seeds)]
        self.fingerprints: Dict[int, List[str]] = {}
        self.results: Dict[int, object] = {}

    def setup(self) -> None:
        from repro.circuit.suite import build_suite_circuit
        from repro.core.compiled import ensure_compiled_system
        from repro.core.flow import BufferInsertionFlow  # noqa: F401 - set-up imports the flow

        self.design = build_suite_circuit(self.circuit, scale=self.scale, seed=self.design_seed)
        ensure_compiled_system(self.design)

    def round(self) -> List[object]:
        return list(self.flow_seeds)

    def _flow(self, flow_seed: int):
        from repro.core.config import FlowConfig
        from repro.core.flow import BufferInsertionFlow

        config = FlowConfig(
            n_samples=self.n_samples,
            n_eval_samples=self.n_eval_samples,
            seed=flow_seed,
            target_sigma=self.sigma,
            executor="serial",
        )
        return BufferInsertionFlow(self.design, config)

    def warm_up(self) -> None:
        self._record(self.flow_seeds[0], self._flow(self.flow_seeds[0]).run())

    def _record(self, flow_seed: int, result) -> None:
        self.fingerprints.setdefault(flow_seed, []).append(plan_fingerprint(result.plan))
        self.results.setdefault(flow_seed, result)

    def run_op(self, label: object) -> OpResult:
        flow = self._flow(int(label))
        start = time.perf_counter()
        result = flow.run()
        wall = time.perf_counter() - start
        self._record(int(label), result)
        return OpResult(start, wall, 1, [wall])

    def check(self) -> Tuple[int, int, List[str]]:
        from repro.core.compiled import ensure_compiled_system
        from repro.tuning.configurator import PostSiliconConfigurator
        from repro.utils.rng import spawn_rngs
        from repro.variation.sampling import MonteCarloSampler

        attempted = failed = 0
        messages: List[str] = []
        compiled = ensure_compiled_system(self.design)
        for position, (flow_seed, fingerprints) in enumerate(self.fingerprints.items()):
            attempted += len(fingerprints) + 1
            mismatched = sum(1 for fp in fingerprints if fp != fingerprints[0])
            if mismatched:
                failed += mismatched
                messages.append(f"flow seed {flow_seed}: {mismatched} repeats changed the plan")
            result = self.results[flow_seed]
            if result.improved_yield < result.original_yield:
                failed += 1
                messages.append(
                    f"flow seed {flow_seed}: improved yield {result.improved_yield} "
                    f"< original {result.original_yield}"
                )
            if position >= REEVALUATED_SEEDS:
                continue
            attempted += 1
            # The flow's evaluation batch, redrawn from the same stream.
            _, eval_rng, _ = spawn_rngs(flow_seed, 3)
            sampler = MonteCarloSampler(self.design.variation_model, rng=eval_rng)
            samples = compiled.sample(sampler.sample(self.n_eval_samples), sampler=sampler)
            plan = result.plan
            step = plan.buffers[0].step if plan.buffers else 0.0
            evaluation = PostSiliconConfigurator(compiled, plan, step).evaluate(
                samples, result.target_period
            )
            if evaluation.yield_fraction != result.improved_yield:
                failed += 1
                messages.append(
                    f"flow seed {flow_seed}: re-evaluated yield {evaluation.yield_fraction} "
                    f"!= flow yield {result.improved_yield}"
                )
        return attempted, failed, messages

    def quality(self) -> Tuple[float, float]:
        results = [self.results[s] for s in self.flow_seeds]
        return (
            statistics.fmean(r.improved_yield for r in results),
            statistics.fmean(r.plan.n_buffers for r in results),
        )

    def aliases(self, ops: List[OpResult]) -> Dict[str, Tuple[float, str]]:
        return {"flow_p50_s": (statistics.median(op.wall for op in ops), "s")}


class CampaignGang(Workload):
    """One ``CampaignRunner.run`` of one matrix point on worker processes.

    Each operation runs one spec into a fresh SQLite store with batched
    (gang) dispatch; a round cycles through ``n_specs`` spec seeds so the
    plan-quality means average over many plans.
    """

    entry_layers = ("campaign.run",)

    def __init__(self, seed, workdir, jobs, *, scale, budget, replicates,
                 n_specs) -> None:
        super().__init__(workdir, jobs)
        self.scale = scale
        self.budget = budget
        self.replicates = replicates
        self.spec_seeds = [derive_seed(seed, "campaign", i) for i in range(n_specs)]
        self.runs: List[Tuple[object, str, object]] = []
        self.n_ops = 0

    def setup(self) -> None:
        from repro.campaign.runner import CampaignRunner  # noqa: F401 - set-up imports the runner
        from repro.campaign.spec import CampaignSpec

        self.specs = {
            spec_seed: CampaignSpec(
                name="gang",
                seed=spec_seed,
                circuits=(("s9234", self.scale),),
                sigmas=(1.0,),
                budgets=(self.budget,),
                replicates=self.replicates,
                design_seed=1,
            )
            for spec_seed in self.spec_seeds
        }

    def round(self) -> List[object]:
        return list(self.spec_seeds)

    def warm_up(self) -> None:
        self.run_op(self.spec_seeds[0])

    def run_op(self, label: object) -> OpResult:
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.store import CampaignStore

        spec = self.specs[label]
        uri = f"sqlite:{self.workdir / f'campaign-{self.n_ops}.sqlite'}"
        self.n_ops += 1
        store = CampaignStore.open(uri)
        runner = CampaignRunner(
            spec, store, executor="processes", jobs=self.jobs, dispatch="batched"
        )
        start = time.perf_counter()
        summary = runner.run()
        wall = time.perf_counter() - start
        self.runs.append((spec, uri, summary))
        return OpResult(start, wall, summary.n_run, [wall])

    def check(self) -> Tuple[int, int, List[str]]:
        from repro.campaign.runner import campaign_status
        from repro.campaign.store import CampaignStore

        failed = 0
        messages: List[str] = []
        for spec, uri, summary in self.runs:
            status = campaign_status(spec, CampaignStore.open(uri))
            if not status.complete or summary.n_run != status.n_cells:
                failed += 1
                messages.append(
                    f"campaign {uri}: {status.n_completed}/{status.n_cells} cells in the store, "
                    f"{summary.n_run} run"
                )
        return len(self.runs), failed, messages

    def quality(self) -> Tuple[float, float]:
        from repro.campaign.store import CampaignStore

        yields: List[float] = []
        buffers: List[float] = []
        seen = set()
        for spec, uri, _ in self.runs:
            if spec.seed in seen:
                continue
            seen.add(spec.seed)
            for record in CampaignStore.open(uri).load().values():
                yields.append(float(record["result"]["improved_yield"]))
                buffers.append(float(record["result"]["n_buffers"]))
        return statistics.fmean(yields), statistics.fmean(buffers)

    def aliases(self, ops: List[OpResult]) -> Dict[str, Tuple[float, str]]:
        return {"cells_per_s": (sum(op.plans for op in ops) / sum(op.wall for op in ops), "1/s")}


class ServiceBurst(Workload):
    """Submit a burst of single-cell jobs over HTTP, drain, fetch reports.

    Every pass starts from an empty SQLite queue behind a fresh server, so
    every pass does the same work; the event log does not grow across
    passes.  The jobs share one design and differ in their job seeds.
    """

    def __init__(self, seed, workdir, jobs, *, n_jobs, scale, budget) -> None:
        super().__init__(workdir, jobs)
        self.n_jobs = n_jobs
        self.scale = scale
        self.budget = budget
        self.job_seeds = [derive_seed(seed, "job", i) for i in range(n_jobs)]
        self.fetched: List[Tuple[object, str, bytes]] = []
        self.n_passes = 0
        self.server = None

    def setup(self) -> None:
        from repro.campaign.spec import CampaignSpec

        self.specs = [
            CampaignSpec(
                name="burst",
                seed=job_seed,
                circuits=(("s9234", self.scale),),
                sigmas=(1.0,),
                budgets=(self.budget,),
                replicates=1,
                baselines=(),
                design_seed=1,
            )
            for job_seed in self.job_seeds
        ]
        self._start_server()

    def _start_server(self) -> None:
        from repro.service import ServiceClient, build_server

        pass_dir = self.workdir / f"pass-{self.n_passes}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        self.queue_uri = f"sqlite:{pass_dir / 'queue.sqlite'}"
        self.server = build_server(self.queue_uri, port=0)
        host, port = self.server.server_address[:2]
        self.server_thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.server_thread.start()
        self.client = ServiceClient(f"http://{host}:{port}")
        self.client.healthz()

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.server.service.queue.close()
        self.server_thread.join(timeout=10.0)
        self.server = None

    def round(self) -> List[object]:
        return [None]

    def warm_up(self) -> None:
        """A two-job pass, discarded."""
        specs = self.specs
        self.specs = specs[:2]
        try:
            self.run_op(None)
        finally:
            self.specs = specs
            self.fetched.clear()

    def run_op(self, label: object) -> OpResult:
        from repro.service import CampaignWorker, JobQueue, ServiceClientError

        if self.server is None:
            self._start_server()
        client = self.client
        latencies: List[float] = []
        failed = 0

        def timed(call, *args, **kwargs):
            nonlocal failed
            begin = time.perf_counter()
            try:
                return call(*args, **kwargs)
            except ServiceClientError as error:
                failed += 1
                print(f"request failed: {error}", file=sys.stderr)
                return None
            finally:
                latencies.append(time.perf_counter() - begin)

        start = time.perf_counter()
        fingerprints = []
        for spec in self.specs:
            reply = timed(client.submit, {"spec": spec.as_dict()})
            fingerprints.append(None if reply is None else reply["job"]["fingerprint"])
        queue = JobQueue.open(self.queue_uri)
        try:
            CampaignWorker(queue, worker_id="bench-worker", executor="serial",
                           poll_seconds=0.05).run(exit_when_idle=True)
        finally:
            queue.close()
        for spec, fingerprint in zip(self.specs, fingerprints, strict=True):
            if fingerprint is None:
                continue
            status = timed(client.job, fingerprint)
            if status is None or status["job"]["state"] != "done":
                failed += 1
                continue
            body = timed(client.report, fingerprint)
            if body is not None:
                self.fetched.append((spec, status["job"]["store"], body))
        wall = time.perf_counter() - start
        self._stop_server()
        self.n_passes += 1
        return OpResult(start, wall, len(self.specs), latencies, attempted=len(latencies),
                        failed=failed)

    def check(self) -> Tuple[int, int, List[str]]:
        from repro.campaign.report import build_report, format_report
        from repro.campaign.store import CampaignStore

        failed = 0
        messages: List[str] = []
        for spec, uri, body in self.fetched:
            direct = format_report(build_report(spec, CampaignStore.open(uri)), "text")
            if body != direct.encode("utf-8"):
                failed += 1
                messages.append(f"report of {uri} differs from the one built from its store")
        return len(self.fetched), failed, messages

    def quality(self) -> Tuple[float, float]:
        from repro.campaign.store import CampaignStore

        yields: List[float] = []
        buffers: List[float] = []
        for _, uri, _ in self.fetched[: self.n_jobs]:
            for record in CampaignStore.open(uri).load().values():
                yields.append(float(record["result"]["improved_yield"]))
                buffers.append(float(record["result"]["n_buffers"]))
        return statistics.fmean(yields), statistics.fmean(buffers)

    def aliases(self, ops: List[OpResult]) -> Dict[str, Tuple[float, str]]:
        requests = [1000.0 * value for op in ops for value in op.latencies]
        return {
            "jobs_per_s": (sum(op.plans for op in ops) / sum(op.wall for op in ops), "1/s"),
            "request_p50_ms": (statistics.median(requests), "ms"),
            "request_p90_ms": (
                layers.percentile(requests, layers.tail_percentile(len(requests))), "ms"
            ),
        }

    def close(self) -> None:
        self._stop_server()


def make_workload(name: str, seed: int, smoke: bool, workdir: Path, jobs: int) -> Workload:
    """The workload table: sizes for the real run, and for ``--smoke``."""
    if name == "flow_tight":
        return FlowWorkload(
            seed, workdir, jobs, circuit="s13207",
            scale=0.05 if smoke else 0.3, design_seed=5, sigma=0.0,
            n_samples=40 if smoke else 800, n_eval_samples=60 if smoke else 200,
            n_seeds=2 if smoke else 4,
        )
    if name == "flow_large":
        return FlowWorkload(
            seed, workdir, jobs, circuit="s38584",
            scale=0.03 if smoke else 1.0, design_seed=2, sigma=2.0,
            n_samples=20 if smoke else 200, n_eval_samples=60 if smoke else 1000,
            n_seeds=2 if smoke else 6,
        )
    if name == "campaign_gang":
        return CampaignGang(
            seed, workdir, jobs, scale=0.05 if smoke else 0.2,
            budget=(16, 32) if smoke else (120, 300),
            replicates=2 if smoke else 8, n_specs=1 if smoke else 4,
        )
    if name == "service_burst":
        return ServiceBurst(
            seed, workdir, jobs, n_jobs=4 if smoke else 60, scale=0.05, budget=(16, 32),
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("flow_tight", "flow_large", "campaign_gang", "service_burst")

#: Seconds :func:`reference_seconds` takes on the reference host; times
#: are reported as if the host had that speed.
REFERENCE_SECONDS = 0.05


def reference_seconds() -> float:
    """Time one fixed mix of interpreter, BLAS and memory-bound work.

    The machine this benchmark runs on is shared, and its speed drifts by
    up to 2x over tens of seconds, far more than any regression bound.
    Timing this fixed computation right before and after every operation
    measures the speed the operation ran at; scaling the operation's
    times by ``REFERENCE_SECONDS / reference`` halved the spread of
    median flow times over windows of 8 to 16 flows on a loaded host.
    """
    import numpy as np

    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for index in range(150_000):
        counts[index & 1023] = counts.get(index & 1023, 0) + index
    rng = np.random.default_rng(0)
    matrix = rng.random((300, 300))
    for _ in range(6):
        matrix = matrix @ matrix
        matrix /= matrix.max()
    column = rng.random(1_000_000)
    for _ in range(10):
        np.add(column, 1.0, out=column)
        np.sqrt(column, out=column)
    return time.perf_counter() - start


def run_rounds(workload: Workload, seconds: float, tracer: Optional[layers.Tracer],
               first_run: int = 0) -> List[OpResult]:
    """Whole rounds for about ``seconds`` of wall time, at least one.

    Another round starts only if at least half of it fits in the time
    left, so the measured time stays near ``seconds`` whatever the
    round length.
    """
    ops: List[OpResult] = []
    start = time.perf_counter()
    before = reference_seconds()
    while True:
        round_start = time.perf_counter()
        for label in workload.round():
            if tracer is not None:
                tracer.run = first_run + len(ops)
            try:
                op = workload.run_op(label)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc()
                op = OpResult(time.perf_counter(), 0.0, 0, [], attempted=1, failed=1)
            after = reference_seconds()
            op.scale = 2 * REFERENCE_SECONDS / (before + after)
            ops.append(op)
            before = after
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return ops


def cli_import_seconds(repeats: int) -> float:
    """Median fresh-interpreter ``import repro.cli`` + ``build_parser()``."""
    code = (
        "import time; start = time.perf_counter(); import repro.cli; "
        "repro.cli.build_parser(); print(time.perf_counter() - start)"
    )
    samples = []
    for _ in range(repeats):
        output = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=60,
        ).stdout
        samples.append(float(output.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment() -> Dict[str, object]:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy_version}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.smoke, workdir, args.jobs)
    tracer = layers.Tracer() if args.trace and not args.setup_only else None
    try:
        if tracer is not None:
            tracer.install()
        workload.setup()
        if tracer is not None:
            tracer.uninstall()
        emit("ready", env=environment())
        reference_seconds()  # the first call pays one-time allocation costs
        emit("reference", scale=REFERENCE_SECONDS / reference_seconds())
        if args.setup_only:
            return 0

        workload.warm_up()
        if tracer is None:
            ops = run_rounds(workload, args.seconds, None)
            traced_ops: List[OpResult] = []
        else:
            # Half the time unwrapped, half wrapped: the ratio of their
            # median operation times is the tracing overhead.
            ops = run_rounds(workload, args.seconds / 2, None)
            tracer.install()
            try:
                traced_ops = run_rounds(workload, args.seconds / 2, tracer, first_run=len(ops))
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, messages = workload.check()
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)
        every_op = ops + traced_ops
        attempted += sum(op.attempted for op in every_op)
        failed += sum(op.failed for op in every_op)
        improved_yield, n_buffers = workload.quality()
        normalised = [op.normalised() for op in ops]
        metrics = {"improved_yield": improved_yield, "n_buffers": n_buffers,
                   "peak_rss_mb": peak_rss_mb}
        for suffix, measured in (("", normalised), ("_raw", ops)):
            latencies = [value for op in measured for value in op.latencies]
            metrics["latency_p50_ms" + suffix] = 1000.0 * statistics.median(latencies)
            metrics["plans_per_s" + suffix] = (
                sum(op.plans for op in measured) / sum(op.wall for op in measured)
            )
        metrics["reference_s"] = statistics.median(REFERENCE_SECONDS / op.scale for op in ops)
        aliases = workload.aliases(normalised)
        layer = {}
        if tracer is not None:
            spans = tracer.finished_spans()
            op_wall = sum(op.wall for op in traced_ops)
            windows = {len(ops) + index: (op.start, op.start + op.wall)
                       for index, op in enumerate(traced_ops)}
            layer = layers.layer_metrics(
                spans, tracer.counts, windows, tracer.main_thread, workload.entry_layers
            )
            untraced = statistics.median(op.wall for op in normalised)
            traced = statistics.median(op.normalised().wall for op in traced_ops)
            layer["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
            layer["cli.import_s"] = cli_import_seconds(1 if args.smoke else 3)
            op_mean = op_wall / len(traced_ops)
            layer_table = {
                name: dict(row, self_share=row["self_s"] / op_mean,
                           inclusive_share=row["inclusive_s"] / op_mean)
                for name, row in sorted(layers.self_time_table(spans, len(traced_ops)).items())
            }
            if args.spans:
                tracer.write(args.spans)
        else:
            layer_table = {}
        emit(
            "result",
            metrics=metrics,
            aliases={name: list(value) for name, value in aliases.items()},
            layers=layer,
            layer_table=layer_table,
            attempted=attempted,
            failed=failed,
            n_ops=len(ops) + len(traced_ops),
        )
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
