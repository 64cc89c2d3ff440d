"""Circuit-level variation model.

:class:`VariationModel` turns the physical variation sources of
:mod:`repro.variation.sources` into a concrete set of *shared* standard
normal variables for one die:

* one **global** variable per physical source (die-to-die variation),
* one **regional** variable per physical source and per cell of a
  rectangular spatial grid laid over the die (within-die, spatially
  correlated variation),
* plus a purely **independent** contribution folded into each gate's
  canonical form.

Given a gate's nominal delay and its location on the die, the model builds
the first-order canonical form of the gate's delay.  This is the interface
the statistical timing engine (:mod:`repro.timing.propagate`) consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive
from repro.variation.canonical import CanonicalForm
from repro.variation.sources import DEFAULT_SOURCES, VariationSource


@dataclass(frozen=True)
class GateDelayModel:
    """Statistical description of one gate's (or FF timing quantity's) delay.

    Attributes
    ----------
    nominal:
        Nominal delay in library time units.
    form:
        The delay's first-order canonical form.
    """

    nominal: float
    form: CanonicalForm

    @property
    def sigma(self) -> float:
        """Total delay standard deviation."""
        return self.form.std


class VariationModel:
    """Shared-variation bookkeeping for one die.

    Parameters
    ----------
    die_width, die_height:
        Physical extent of the die (same units as the placement produced by
        :mod:`repro.circuit.placement`).
    grid_rows, grid_cols:
        Size of the spatial-correlation grid.  ``1 x 1`` collapses the
        spatial component onto a single within-die variable.
    sources:
        Physical variation sources (defaults to the paper's three).
    """

    def __init__(
        self,
        die_width: float = 100.0,
        die_height: float = 100.0,
        grid_rows: int = 4,
        grid_cols: int = 4,
        sources: Sequence[VariationSource] = DEFAULT_SOURCES,
    ) -> None:
        check_positive(die_width, "die_width")
        check_positive(die_height, "die_height")
        if grid_rows < 1 or grid_cols < 1:
            raise ValueError("grid must contain at least one region")
        self.die_width = float(die_width)
        self.die_height = float(die_height)
        self.grid_rows = int(grid_rows)
        self.grid_cols = int(grid_cols)
        self.sources: Tuple[VariationSource, ...] = tuple(sources)
        if not self.sources:
            raise ValueError("at least one variation source is required")

        self._n_regions = self.grid_rows * self.grid_cols
        # Layout of the shared-variable vector:
        #   [global_src0, ..., global_srcP,
        #    region0_src0, ..., region0_srcP, region1_src0, ...]
        self._n_shared = len(self.sources) * (1 + self._n_regions)
        self._source_names = self._build_names()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _build_names(self) -> List[str]:
        names = [f"global:{src.name}" for src in self.sources]
        for region in range(self._n_regions):
            names.extend(f"region{region}:{src.name}" for src in self.sources)
        return names

    @property
    def n_shared_sources(self) -> int:
        """Number of shared standard-normal variables of this model."""
        return self._n_shared

    @property
    def n_regions(self) -> int:
        """Number of spatial-correlation regions."""
        return self._n_regions

    @property
    def source_names(self) -> List[str]:
        """Human-readable names of the shared variables (index order)."""
        return list(self._source_names)

    # ------------------------------------------------------------------
    # Spatial grid
    # ------------------------------------------------------------------
    def region_of(self, x: float, y: float) -> int:
        """Return the spatial-grid region index of a die location."""
        col = int(min(self.grid_cols - 1, max(0, math.floor(x / self.die_width * self.grid_cols))))
        row = int(min(self.grid_rows - 1, max(0, math.floor(y / self.die_height * self.grid_rows))))
        return row * self.grid_cols + col

    def region_at(self, x: Optional[float] = None, y: Optional[float] = None) -> int:
        """Region of a die location (a missing coordinate is the centre's);
        :meth:`delay_form` depends on the location only through it."""
        if x is None:
            x = self.die_width / 2.0
        if y is None:
            y = self.die_height / 2.0
        return self.region_of(x, y)

    # ------------------------------------------------------------------
    # Canonical-form construction
    # ------------------------------------------------------------------
    def delay_form(
        self,
        nominal_delay: float,
        x: Optional[float] = None,
        y: Optional[float] = None,
        sigma_scale: float = 1.0,
    ) -> GateDelayModel:
        """Build the canonical delay form of a gate.

        Parameters
        ----------
        nominal_delay:
            Nominal delay of the gate (library value).
        x, y:
            Die location; when omitted the gate is placed at the die centre
            (its spatial component still exists but lands in the centre
            region).
        sigma_scale:
            Optional multiplier on all variation sensitivities, used e.g.
            to model cells that are more or less sensitive than average.
        """
        if nominal_delay < 0:
            raise ValueError(f"nominal_delay must be >= 0, got {nominal_delay}")
        region = self.region_at(x, y)

        sens = np.zeros(self._n_shared)
        independent_var = 0.0
        n_params = len(self.sources)
        for p, src in enumerate(self.sources):
            sigma_total = src.delay_sigma_fraction * nominal_delay * sigma_scale
            g_frac, s_frac, i_frac = src.split.as_tuple()
            sens[p] = sigma_total * math.sqrt(g_frac)
            sens[n_params * (1 + region) + p] = sigma_total * math.sqrt(s_frac)
            independent_var += (sigma_total**2) * i_frac
        form = CanonicalForm(float(nominal_delay), sens, math.sqrt(independent_var))
        return GateDelayModel(float(nominal_delay), form)

    def constant_form(self, value: float) -> CanonicalForm:
        """A deterministic quantity expressed in this model's source space."""
        return CanonicalForm.constant(float(value), self._n_shared)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VariationModel(die={self.die_width}x{self.die_height}, "
            f"grid={self.grid_rows}x{self.grid_cols}, "
            f"sources={[s.name for s in self.sources]})"
        )
