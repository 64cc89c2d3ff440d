#!/usr/bin/env python3
"""Benchmark of the repro package: four workloads, end-to-end and per-layer.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload flow_tight --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in a child process (``perfbench/workloads.py``).  The
set-up time is measured from starting a fresh interpreter to the child's
``ready`` line, on ``SETUP_REPEATS`` children, and reported as the median.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it print every metric by name with its unit, the environment, and with
``--trace 1`` the per-layer self-time table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
PROTOCOL_PREFIX = "@bench "
WORKLOADS = ("flow_tight", "flow_large", "campaign_gang", "service_burst")
#: Fresh-interpreter set-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 3
#: A run must end within 180 s; children are killed past this budget.
DEADLINE_SECONDS = 170.0
#: Thread pools of numeric libraries are pinned to one thread, so the
#: busy threads never exceed the CPUs even with two engine workers.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "plans_per_s": "1/s",
    "improved_yield": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a child broke the protocol."""


def child_environment(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Child:
    """One workload process, read line by line with a hard deadline."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: Path, deadline: float,
                 log) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL, env=env,
            cwd=str(cwd), text=True,
        )
        self._timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.process.kill)
        self._timer.daemon = True
        self._timer.start()

    def next_event(self) -> Tuple[Dict[str, object], float]:
        """The next protocol message and the seconds since the child started."""
        for line in self.process.stdout:
            if line.startswith(PROTOCOL_PREFIX):
                return json.loads(line[len(PROTOCOL_PREFIX):]), time.perf_counter() - self.started
        raise BenchError(f"workload process exited with code {self.process.wait()} "
                         "before finishing the protocol")

    def finish(self) -> None:
        try:
            self.process.stdout.read()
            code = self.process.wait()
        finally:
            self._timer.cancel()
        if code != 0:
            raise BenchError(f"workload process exited with code {code}")

    def kill(self) -> None:
        self._timer.cancel()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def run_workload(name: str, args: argparse.Namespace, root: Path, deadline: float
                 ) -> Dict[str, object]:
    env = child_environment(root)
    jobs = min(2, available_cpus())
    base = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
            "--seed", str(args.seed), "--jobs", str(jobs)]
    if args.smoke:
        base.append("--smoke")
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    log_path = scratch / f"{name}.log"
    setup_samples: List[float] = []
    raw_setup: List[float] = []
    repeats = 1 if args.smoke else SETUP_REPEATS
    probe = base + ["--setup-only", "--workdir", str(scratch / f"{name}-probe")]
    measure = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--workdir", str(scratch / f"{name}-run"),
                      "--spans", str(scratch / f"spans-{name}.jsonl")]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            for argv in [probe] * (repeats - 1) + [measure]:
                child = Child(argv, env, root, deadline, log)
                try:
                    event, elapsed = child.next_event()
                    env_info = event["env"]
                    reference, _ = child.next_event()
                    raw_setup.append(elapsed)
                    setup_samples.append(elapsed * reference["scale"])
                    if argv is measure:
                        result, _ = child.next_event()
                    child.finish()
                finally:
                    child.kill()
        except BenchError as error:
            log.flush()
            tail = log_path.read_text(encoding="utf-8").splitlines()[-20:]
            raise BenchError("\n".join([f"{name}: {error}"] + tail)) from None
        finally:
            for leftover in scratch.glob(f"{name}-*"):
                shutil.rmtree(leftover, ignore_errors=True)
    result["setup_s"] = statistics.median(setup_samples)
    result["metrics"]["setup_s_raw"] = statistics.median(raw_setup)
    result["env"] = dict(env_info, nproc=available_cpus(), cpu=cpu_model(), jobs=jobs,
                         threads={var: env[var] for var in THREAD_VARIABLES},
                         pythonhashseed=env["PYTHONHASHSEED"])
    return result


def end_to_end(result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    values = dict(result["metrics"], setup_s=result["setup_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    units = layer_units()
    return {name: {"value": result["layers"].get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def layer_units() -> Dict[str, str]:
    """Per-layer metric names and units, as listed in BENCHMARK.json."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)["per_layer"]}


def describe(name: str, result: Dict[str, object], trace: int) -> None:
    """Human-readable report of one workload: every metric with its unit."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name} ({result['n_ops']} operations)")
    rows: List[Tuple[str, float, str]] = [
        (metric, entry["value"], entry["unit"]) for metric, entry in end_to_end(result).items()
    ]
    # Plan size varies with the seed far beyond any bound, so it is
    # printed and checked but is not a gated metric.
    rows.append(("n_buffers", result["metrics"]["n_buffers"], "count"))
    rows += [(alias, value, unit) for alias, (value, unit) in result["aliases"].items()]
    # The same times before scaling to the reference host speed.
    rows += [(metric + "_raw", result["metrics"][metric + "_raw"], END_TO_END_UNITS[metric])
             for metric in ("setup_s", "latency_p50_ms", "plans_per_s")]
    rows.append(("reference_s", result["metrics"]["reference_s"], "s"))
    rows.append(("error_rate", failed / attempted if attempted else 1.0, "fraction"))
    for metric, value, unit in rows:
        print(f"   {metric:<24} {value:>14.6f} {unit}")
    if trace:
        for metric, entry in per_layer(result).items():
            print(f"   {metric:<24} {entry['value']:>14.6f} {entry['unit']}")
        print(f"   {'layer':<24} {'self s/op':>10} {'share':>7} {'incl s/op':>10} "
              f"{'share':>7} {'calls/op':>10}")
        for layer, row in result["layer_table"].items():
            print(f"   {layer:<24} {row['self_s']:>10.4f} {row['self_share']:>7.1%} "
                  f"{row['inclusive_s']:>10.4f} {row['inclusive_share']:>7.1%} "
                  f"{row['calls']:>10.1f}")
    print("   env " + json.dumps(result["env"], sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the repro package.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs, one set-up: checks the benchmark itself")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_SECONDS * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, root, deadline)
            describe(name, results[name], args.trace)
    except (BenchError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    pick = per_layer if args.trace else end_to_end
    if len(names) == 1:
        metrics = pick(results[names[0]])
    else:
        metrics = {f"{name}.{metric}": entry
                   for name in names for metric, entry in pick(results[name]).items()}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
