"""repro — sampling-based post-silicon clock-tuning buffer insertion.

This package reproduces the system described in

    G. L. Zhang, B. Li, U. Schlichtmann,
    "Sampling-based Buffer Insertion for Post-Silicon Yield Improvement
    under Process Variability", DATE 2016.

The public API is organised in subpackages:

``repro.circuit``
    Gate-level netlist data model, cell library, ``.bench`` parser,
    synthetic circuit generators, placement and clock-skew injection, and
    the benchmark suite used by the paper's Table I.

``repro.variation``
    Process-variation substrate: variation sources, the first-order
    canonical delay form, and Monte-Carlo sampling.

``repro.timing``
    Static and statistical timing analysis: timing graphs, arrival-time
    propagation, the sequential (flip-flop to flip-flop) constraint graph,
    critical paths and minimum clock period.

``repro.milp``
    A from-scratch mixed-integer linear programming solver used as the
    Gurobi replacement for the per-sample optimisation problems.

``repro.engine``
    Parallel sample-solving execution engine: serial and process-pool
    executors with chunked submission and warm worker state,
    batched sample scheduling, a keyed result cache and progress /
    timing instrumentation.  Shared by the flow, the yield estimator and
    the baselines; results are bit-identical across executors.

``repro.core``
    The paper's contribution: the three-step sampling-based buffer
    insertion flow (floating bounds, fixed bounds, grouping).

``repro.tuning``
    Post-silicon configuration of the inserted buffers for individual
    manufactured chips (used to evaluate yield).

``repro.yieldsim``
    Monte-Carlo yield estimation with and without tuning buffers.

``repro.baselines``
    Comparison methods (buffer at every flip-flop, criticality heuristic,
    random placement).

``repro.analysis``
    Histograms, correlation analysis and Table-I style reporting.

``repro.store``
    Pluggable storage tier: URI-addressed JSONL / SQLite(WAL) drivers
    behind one conformance-tested ``StoreBackend`` contract.

``repro.campaign``
    Resumable multi-circuit experiment campaigns: declarative specs,
    checkpointed stores, sharding/merge, pooling, reports and trends.

``repro.obs``
    Observability substrate: structured span traces, a metrics
    registry and run-manifest telemetry, all stdlib-only.

``repro.service``
    The long-running service layer: a durable job queue over
    ``repro.store``, the ``repro work`` worker daemon, and the
    ``repro serve`` HTTP/JSON API with its client.

Quickstart
----------
>>> from repro.circuit.suite import build_suite_circuit
>>> from repro.core import BufferInsertionFlow, FlowConfig
>>> circuit = build_suite_circuit("s9234", scale=0.15, seed=1)
>>> flow = BufferInsertionFlow(circuit, FlowConfig(n_samples=200, seed=1))
>>> result = flow.run()
>>> len(result.plan.buffers) >= 0
True
"""

from repro._version import __version__

__all__ = ["__version__"]
