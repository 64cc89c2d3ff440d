"""Process-variation substrate.

The paper models combinational delays, setup/hold times and buffer delays
as random variables caused by process variation in transistor length,
oxide thickness and threshold voltage.  This subpackage provides:

* :mod:`repro.variation.sources` — the physical variation sources and how
  their variance is split into globally shared, spatially correlated and
  purely independent components;
* :mod:`repro.variation.canonical` — the first-order canonical delay form
  of Visweswariah et al. (paper reference [3]) including Clark's
  max-approximation, which the statistical timing engine propagates;
* :mod:`repro.variation.arrayforms` — stacks of canonical forms as one
  coefficient matrix with vectorised arithmetic and row-wise Clark
  max/min (the compiled hot path);
* :mod:`repro.variation.model` — assembly of a per-circuit variation model
  that assigns every gate a sensitivity vector over the shared sources;
* :mod:`repro.variation.sampling` — vectorised Monte-Carlo sampling of the
  shared sources and single-matmul evaluation of stacked forms per sample
  (``MonteCarloSampler.evaluate_array``, the one evaluation kernel).
"""

from repro.variation.arrayforms import ArrayForms, clark_max_many
from repro.variation.canonical import CanonicalForm
from repro.variation.model import GateDelayModel, VariationModel
from repro.variation.sampling import MonteCarloSampler, SampleBatch
from repro.variation.sources import (
    DEFAULT_SOURCES,
    VariationSource,
    VarianceSplit,
)

__all__ = [
    "ArrayForms",
    "CanonicalForm",
    "clark_max_many",
    "GateDelayModel",
    "VariationModel",
    "MonteCarloSampler",
    "SampleBatch",
    "VariationSource",
    "VarianceSplit",
    "DEFAULT_SOURCES",
]
