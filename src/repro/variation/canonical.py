"""First-order canonical delay form (paper reference [3]).

A statistical timing quantity is represented as

    d = a0 + sum_i a_i * dX_i + a_r * dR

where ``dX_i`` are shared standard-normal variation sources (global and
spatially correlated components of the physical parameters) and ``dR`` is a
standard-normal variable independent of everything else (the purely random,
per-gate component).  All sensitivities are stored in delay units.

The class supports the operations needed by a block-based statistical
timing engine:

* addition / subtraction of forms and constants,
* scaling,
* the statistical maximum and minimum of two forms using Clark's
  moment-matching approximation,
* evaluation against a matrix of sampled source values (Monte Carlo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

Number = Union[int, float]

#: Standard-normal pdf / cdf helpers, on :mod:`math` alone.
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    """Standard normal probability density function."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _Phi(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


@dataclass
class CanonicalForm:
    """First-order canonical form ``a0 + a·dX + a_r·dR``.

    Parameters
    ----------
    mean:
        Nominal value ``a0``.
    sensitivities:
        Length-``n_sources`` vector of sensitivities to the shared sources.
    independent:
        Sensitivity (standard deviation) of the purely independent term.
    """

    mean: float
    sensitivities: np.ndarray
    independent: float = 0.0

    def __post_init__(self) -> None:
        self.sensitivities = np.asarray(self.sensitivities, dtype=float)
        if self.sensitivities.ndim != 1:
            raise ValueError("sensitivities must be a 1-D vector")
        self.mean = float(self.mean)
        self.independent = float(self.independent)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: float, n_sources: int) -> "CanonicalForm":
        """A deterministic value expressed as a canonical form."""
        return cls(value, np.zeros(n_sources), 0.0)

    @classmethod
    def zeros_like(cls, other: "CanonicalForm") -> "CanonicalForm":
        """A zero form with the same number of sources as ``other``."""
        return cls(0.0, np.zeros_like(other.sensitivities), 0.0)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        """Number of shared variation sources."""
        return int(self.sensitivities.shape[0])

    @property
    def variance(self) -> float:
        """Total variance (shared + independent)."""
        return float(np.dot(self.sensitivities, self.sensitivities) + self.independent**2)

    @property
    def std(self) -> float:
        """Total standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    def quantile(self, q: float) -> float:
        """Gaussian quantile of the form (e.g. ``q=0.9987`` for +3 sigma)."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        # Inverse CDF via binary search on Phi: adequate precision, math only.
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _Phi(mid) < q:
                lo = mid
            else:
                hi = mid
        return self.mean + self.std * 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "CanonicalForm") -> None:
        if self.n_sources != other.n_sources:
            raise ValueError(
                f"incompatible forms: {self.n_sources} vs {other.n_sources} sources"
            )

    def __add__(self, other: Union["CanonicalForm", Number]) -> "CanonicalForm":
        if isinstance(other, CanonicalForm):
            self._check_compatible(other)
            return CanonicalForm(
                self.mean + other.mean,
                self.sensitivities + other.sensitivities,
                math.hypot(self.independent, other.independent),
            )
        return CanonicalForm(self.mean + float(other), self.sensitivities.copy(), self.independent)

    __radd__ = __add__

    def __neg__(self) -> "CanonicalForm":
        return CanonicalForm(-self.mean, -self.sensitivities, self.independent)

    def __sub__(self, other: Union["CanonicalForm", Number]) -> "CanonicalForm":
        if isinstance(other, CanonicalForm):
            self._check_compatible(other)
            return CanonicalForm(
                self.mean - other.mean,
                self.sensitivities - other.sensitivities,
                math.hypot(self.independent, other.independent),
            )
        return CanonicalForm(self.mean - float(other), self.sensitivities.copy(), self.independent)

    def __rsub__(self, other: Number) -> "CanonicalForm":
        return (-self) + float(other)

    def __mul__(self, factor: Number) -> "CanonicalForm":
        factor = float(factor)
        return CanonicalForm(
            self.mean * factor, self.sensitivities * factor, abs(self.independent * factor)
        )

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Statistical max / min (Clark's approximation)
    # ------------------------------------------------------------------
    def covariance(self, other: "CanonicalForm") -> float:
        """Covariance with another form (independent terms are uncorrelated)."""
        self._check_compatible(other)
        return float(np.dot(self.sensitivities, other.sensitivities))

    def correlation(self, other: "CanonicalForm") -> float:
        """Correlation coefficient with another form."""
        denom = self.std * other.std
        if denom <= 0.0:
            return 0.0
        return max(-1.0, min(1.0, self.covariance(other) / denom))

    def max(self, other: "CanonicalForm") -> "CanonicalForm":
        """Statistical maximum using Clark's moment-matching approximation.

        The result is re-expressed as a canonical form: shared sensitivities
        are the tightness-weighted combination of the operands' sensitivities
        and the residual variance is pushed into the independent term so that
        the first two moments match Clark's formulas.
        """
        self._check_compatible(other)
        a, b = self, other
        var_a, var_b = a.variance, b.variance
        theta2 = var_a + var_b - 2.0 * a.covariance(b)
        theta = math.sqrt(max(theta2, 0.0))
        if theta < 1e-12:
            # Perfectly correlated with equal spread: max is whichever mean is larger.
            return (a if a.mean >= b.mean else b)._copy()
        alpha = (a.mean - b.mean) / theta
        t = _Phi(alpha)        # tightness probability P(a > b)
        phi = _phi(alpha)
        mean = a.mean * t + b.mean * (1.0 - t) + theta * phi
        second_moment = (
            (var_a + a.mean**2) * t
            + (var_b + b.mean**2) * (1.0 - t)
            + (a.mean + b.mean) * theta * phi
        )
        variance = max(second_moment - mean**2, 0.0)
        sens = t * a.sensitivities + (1.0 - t) * b.sensitivities
        shared_var = float(np.dot(sens, sens))
        independent = math.sqrt(max(variance - shared_var, 0.0))
        return CanonicalForm(mean, sens, independent)

    def min(self, other: "CanonicalForm") -> "CanonicalForm":
        """Statistical minimum via ``min(a, b) = -max(-a, -b)``."""
        return -((-self).max(-other))

    def _copy(self) -> "CanonicalForm":
        return CanonicalForm(self.mean, self.sensitivities.copy(), self.independent)

    # ------------------------------------------------------------------
    # Monte-Carlo evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        source_samples: np.ndarray,
        independent_samples: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate the form for sampled source values.

        Parameters
        ----------
        source_samples:
            Array of shape ``(n_sources, n_samples)`` with standard-normal
            samples of the shared sources.
        independent_samples:
            Optional array of shape ``(n_samples,)`` with standard-normal
            samples of the independent term.  If omitted the independent
            contribution is dropped (useful when it has been merged
            elsewhere).
        """
        source_samples = np.asarray(source_samples, dtype=float)
        if source_samples.ndim != 2 or source_samples.shape[0] != self.n_sources:
            raise ValueError(
                f"source_samples must have shape ({self.n_sources}, n); "
                f"got {source_samples.shape}"
            )
        values = self.mean + self.sensitivities @ source_samples
        if independent_samples is not None and self.independent != 0.0:
            independent_samples = np.asarray(independent_samples, dtype=float)
            if independent_samples.shape[0] != source_samples.shape[1]:
                raise ValueError("independent_samples length must match n_samples")
            values = values + self.independent * independent_samples
        return values

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CanonicalForm(mean={self.mean:.4g}, std={self.std:.4g}, "
            f"n_sources={self.n_sources})"
        )


def canonical_max(forms: Iterable[CanonicalForm]) -> CanonicalForm:
    """Statistical maximum of an iterable of canonical forms."""
    iterator = iter(forms)
    try:
        result = next(iterator)
    except StopIteration:
        raise ValueError("canonical_max requires at least one form") from None
    for form in iterator:
        result = result.max(form)
    return result


def canonical_min(forms: Iterable[CanonicalForm]) -> CanonicalForm:
    """Statistical minimum of an iterable of canonical forms."""
    iterator = iter(forms)
    try:
        result = next(iterator)
    except StopIteration:
        raise ValueError("canonical_min requires at least one form") from None
    for form in iterator:
        result = result.min(form)
    return result
