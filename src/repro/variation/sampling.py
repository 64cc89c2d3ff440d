"""Monte-Carlo sampling of the shared variation sources.

A :class:`SampleBatch` holds one matrix of standard-normal draws for the
shared variables of a :class:`~repro.variation.model.VariationModel`; every
"sample" column represents one manufactured chip.  Canonical forms are
evaluated against the batch with a single matrix multiplication, which is
what keeps the sampling-based buffer-insertion flow tractable in pure
Python/numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.variation.arrayforms import ArrayForms
from repro.variation.canonical import CanonicalForm
from repro.variation.model import VariationModel


@dataclass
class SampleBatch:
    """Standard-normal draws of the shared variation sources.

    Attributes
    ----------
    shared:
        Array of shape ``(n_shared_sources, n_samples)``.
    seed_sequence:
        The integer seed the batch was drawn from (for provenance).
    """

    shared: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.shared = np.asarray(self.shared, dtype=float)
        if self.shared.ndim != 2:
            raise ValueError("shared samples must be a 2-D array")

    @property
    def n_sources(self) -> int:
        """Number of shared sources."""
        return int(self.shared.shape[0])

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples (chips)."""
        return int(self.shared.shape[1])

    def subset(self, indices: Sequence[int]) -> "SampleBatch":
        """Return a batch restricted to the given sample indices."""
        indices = np.asarray(indices, dtype=int)
        return SampleBatch(self.shared[:, indices], seed=self.seed)


class MonteCarloSampler:
    """Draw chip samples and evaluate canonical forms against them.

    Parameters
    ----------
    model:
        The circuit's variation model (defines the shared-variable space).
    rng:
        Seed or generator; all draws are reproducible given the seed.
    """

    def __init__(self, model: VariationModel, rng: RngLike = None) -> None:
        self.model = model
        self._rng = ensure_rng(rng)

    def sample(self, n_samples: int) -> SampleBatch:
        """Draw ``n_samples`` chips worth of shared-source values."""
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        shared = self._rng.standard_normal((self.model.n_shared_sources, n_samples))
        return SampleBatch(shared)

    def evaluate(
        self,
        forms: Sequence[CanonicalForm],
        batch: SampleBatch,
        include_independent: bool = True,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Evaluate canonical forms for each sample of a batch.

        Parameters
        ----------
        forms:
            Sequence of ``n_forms`` canonical forms over the model's shared
            sources.
        batch:
            The sample batch to evaluate against.
        include_independent:
            When ``True`` (default) each form additionally receives its own
            independent standard-normal draw per sample.
        rng:
            Generator for the independent draws; defaults to the sampler's
            own stream.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(n_forms, n_samples)``.
        """
        forms = list(forms)
        if not forms:
            if batch.n_sources != self.model.n_shared_sources:
                raise ValueError(
                    "sample batch does not match the variation model "
                    f"({batch.n_sources} vs {self.model.n_shared_sources} sources)"
                )
            return np.zeros((0, batch.n_samples))
        stacked = ArrayForms.from_forms(forms, n_sources=self.model.n_shared_sources)
        return self.evaluate_array(stacked, batch, include_independent, rng)

    def evaluate_array(
        self,
        forms: ArrayForms,
        batch: SampleBatch,
        include_independent: bool = True,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Evaluate a pre-stacked :class:`ArrayForms` matrix for a batch.

        The compiled fast path: no per-call stacking, one matrix
        multiplication for all forms and samples.  Consumes the sampler's
        random stream exactly like :meth:`evaluate` (one standard-normal
        matrix per call when any form has a non-zero independent term),
        so the two entry points are interchangeable bit for bit.
        """
        if batch.n_sources != self.model.n_shared_sources:
            raise ValueError(
                "sample batch does not match the variation model "
                f"({batch.n_sources} vs {self.model.n_shared_sources} sources)"
            )
        if forms.n_sources != self.model.n_shared_sources:
            raise ValueError(
                "forms do not match the variation model "
                f"({forms.n_sources} vs {self.model.n_shared_sources} sources)"
            )
        n_forms = forms.n_forms
        n_samples = batch.n_samples
        if n_forms == 0:
            return np.zeros((0, n_samples))
        # Accumulate into the matmul result: the same per-entry IEEE
        # operations as ``means + S @ shared + independent * noise``,
        # without the full-size temporaries.
        values = forms.sensitivities @ batch.shared
        values += forms.means[:, None]
        if include_independent and np.any(forms.independent != 0.0):
            generator = ensure_rng(rng) if rng is not None else self._rng
            noise = generator.standard_normal((n_forms, n_samples))
            noise *= forms.independent[:, None]
            values += noise
        return values
