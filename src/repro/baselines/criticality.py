"""Baseline: criticality-driven buffer placement with symmetric ranges.

A statistical-timing-driven heuristic in the spirit of the paper's
reference [2] (Tsai et al., ICCAD 2005): flip-flops are ranked by how
likely they are to terminate or launch a failing register-to-register
stage at the target period, and the top-k receive a tuning buffer with a
symmetric range.  Unlike the proposed method the ranges are neither
asymmetric nor minimised, and no sampling-based support minimisation takes
place.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.circuit.design import CircuitDesign
from repro.core.compiled import ensure_compiled_system
from repro.core.config import BufferSpec
from repro.core.results import Buffer, BufferPlan


def flip_flop_criticality(design: CircuitDesign, target_period: float) -> Dict[str, float]:
    """Statistical criticality score per flip-flop.

    The score of an edge is the probability (under the canonical Gaussian
    model) that its setup constraint fails at the target period; a
    flip-flop accumulates the scores of its incident edges, in edge order
    (the design's compiled setup quantities and skew differences).
    """
    system = ensure_compiled_system(design)
    setup = system.setup_forms
    slack_means = (target_period + system.skew_difference - setup.means).tolist()
    sigmas = setup.stds().tolist()
    names = system.ff_names
    scores: Dict[str, float] = {ff: 0.0 for ff in names}
    for launch, capture, slack_mean, sigma in zip(
        system.edge_launch.tolist(), system.edge_capture.tolist(), slack_means, sigmas, strict=True
    ):
        if sigma <= 0:
            probability = 1.0 if slack_mean < 0 else 0.0
        else:
            probability = 0.5 * (1.0 - math.erf(slack_mean / (sigma * math.sqrt(2.0))))
        scores[names[launch]] += probability
        scores[names[capture]] += probability
    return scores


def criticality_plan(
    design: CircuitDesign,
    target_period: float,
    n_buffers: int,
    buffer_spec: Optional[BufferSpec] = None,
) -> BufferPlan:
    """Place ``n_buffers`` symmetric buffers at the most critical flip-flops."""
    if n_buffers < 0:
        raise ValueError("n_buffers must be non-negative")
    spec = buffer_spec or BufferSpec()
    max_range = spec.max_range(target_period)
    step = spec.step_size(target_period) if spec.discrete else 0.0
    half = max_range / 2.0

    scores = flip_flop_criticality(design, target_period)
    ranked = sorted(scores, key=lambda ff: scores[ff], reverse=True)
    buffers = [
        Buffer(flip_flop=ff, lower=-half, upper=half, step=step, usage_count=0)
        for ff in ranked[:n_buffers]
    ]
    return BufferPlan(buffers=buffers, target_period=float(target_period))
