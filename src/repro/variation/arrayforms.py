"""Array-native stacks of first-order canonical forms.

:class:`ArrayForms` is the compiled counterpart of
:class:`~repro.variation.canonical.CanonicalForm`: ``n_forms`` canonical
forms stored as one ``(n_forms, n_sources + 2)`` coefficient matrix

* column ``0`` — the means ``a0``,
* columns ``1 .. n_sources`` — the shared-source sensitivities,
* column ``n_sources + 1`` — the independent sigmas ``a_r`` (>= 0).

Every operation of the scalar class exists in vectorised row-wise form:
addition/subtraction (independent terms combine in quadrature), scaling
and Clark's statistical max/min.  Monte-Carlo evaluation of all forms
against a sample batch, ``means + sensitivities @ samples`` plus the
independent noise, is one matrix multiplication in
:meth:`repro.variation.sampling.MonteCarloSampler.evaluate_array`.  The
statistical timing engine (:mod:`repro.timing.propagate`) sweeps whole
levels of the timing graph through these kernels instead of looping over
Python objects, and the compiled constraint system
(:mod:`repro.core.compiled`) keeps the stacked edge quantities around for
batch evaluation.

``CanonicalForm`` remains the scalar view: :meth:`ArrayForms.form`
materialises one row, :meth:`ArrayForms.from_forms` stacks scalar forms.
The two paths agree to within a few ulps (the array path evaluates the
same Clark formulas elementwise); the test suite pins the agreement at
``1e-12``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.variation.canonical import CanonicalForm

#: Below this spread Clark's max degenerates to picking the larger mean
#: (same constant as the scalar path in :mod:`repro.variation.canonical`).
_CLARK_DEGENERATE_TOL = 1e-12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

try:  # pragma: no cover - exercised indirectly on every import
    from scipy.special import erf as _erf
except Exception:  # pragma: no cover - scipy genuinely absent
    _erf_obj = np.frompyfunc(math.erf, 1, 1)

    def _erf(x: np.ndarray) -> np.ndarray:
        return _erf_obj(x).astype(float)


class ArrayForms:
    """A stack of canonical forms as one coefficient matrix.

    Parameters
    ----------
    coeffs:
        Array of shape ``(n_forms, n_sources + 2)`` laid out as
        ``[mean | sensitivities | independent]``.  The array is used
        as-is (no copy) when it already is a float64 matrix.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] < 2:
            raise ValueError(
                "coeffs must have shape (n_forms, n_sources + 2); "
                f"got {coeffs.shape}"
            )
        self.coeffs = coeffs

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n_forms: int, n_sources: int) -> "ArrayForms":
        """``n_forms`` zero forms over ``n_sources`` shared sources."""
        return cls(np.zeros((n_forms, n_sources + 2)))

    @classmethod
    def constants(cls, values: Sequence[float], n_sources: int) -> "ArrayForms":
        """Deterministic values expressed as canonical forms."""
        values = np.asarray(values, dtype=float)
        coeffs = np.zeros((values.shape[0], n_sources + 2))
        coeffs[:, 0] = values
        return cls(coeffs)

    @classmethod
    def from_forms(
        cls, forms: Iterable[CanonicalForm], n_sources: Optional[int] = None
    ) -> "ArrayForms":
        """Stack scalar :class:`CanonicalForm` objects into one matrix.

        ``n_sources`` is only needed for an empty iterable, where the
        source dimension cannot be inferred.
        """
        forms = list(forms)
        if not forms:
            if n_sources is None:
                raise ValueError("n_sources is required to stack zero forms")
            return cls.zeros(0, n_sources)
        width = forms[0].n_sources
        coeffs = np.empty((len(forms), width + 2))
        for row, form in enumerate(forms):
            if form.n_sources != width:
                raise ValueError(
                    f"incompatible forms: {width} vs {form.n_sources} sources"
                )
            coeffs[row, 0] = form.mean
            coeffs[row, 1:-1] = form.sensitivities
            coeffs[row, -1] = form.independent
        return cls(coeffs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_forms(self) -> int:
        """Number of stacked forms (rows)."""
        return int(self.coeffs.shape[0])

    @property
    def n_sources(self) -> int:
        """Number of shared variation sources."""
        return int(self.coeffs.shape[1] - 2)

    def __len__(self) -> int:
        return self.n_forms

    @property
    def means(self) -> np.ndarray:
        """Vector of the ``a0`` terms (view into the matrix)."""
        return self.coeffs[:, 0]

    @property
    def sensitivities(self) -> np.ndarray:
        """Matrix ``(n_forms, n_sources)`` of shared sensitivities (view)."""
        return self.coeffs[:, 1:-1]

    @property
    def independent(self) -> np.ndarray:
        """Vector of independent sigmas (view into the matrix)."""
        return self.coeffs[:, -1]

    def variances(self) -> np.ndarray:
        """Total variance (shared + independent) of every form."""
        sens = self.sensitivities
        return np.einsum("ij,ij->i", sens, sens) + self.independent**2

    def stds(self) -> np.ndarray:
        """Total standard deviation of every form."""
        return np.sqrt(np.maximum(self.variances(), 0.0))

    def form(self, index: int) -> CanonicalForm:
        """The scalar view of one row."""
        row = self.coeffs[index]
        return CanonicalForm(float(row[0]), row[1:-1].copy(), float(row[-1]))

    def forms(self) -> List[CanonicalForm]:
        """All rows as scalar forms."""
        return [self.form(i) for i in range(self.n_forms)]

    def take(self, indices) -> "ArrayForms":
        """A new stack restricted to the given row indices."""
        return ArrayForms(self.coeffs[np.asarray(indices, dtype=int).ravel()])

    def copy(self) -> "ArrayForms":
        """An independent copy of the stack."""
        return ArrayForms(self.coeffs.copy())

    # ------------------------------------------------------------------
    # Arithmetic (row-wise; independent terms combine in quadrature)
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["ArrayForms", CanonicalForm]) -> np.ndarray:
        """Other operand as a broadcastable coefficient matrix."""
        if isinstance(other, ArrayForms):
            if other.n_sources != self.n_sources:
                raise ValueError(
                    f"incompatible stacks: {self.n_sources} vs {other.n_sources} sources"
                )
            return other.coeffs
        if isinstance(other, CanonicalForm):
            if other.n_sources != self.n_sources:
                raise ValueError(
                    f"incompatible forms: {self.n_sources} vs {other.n_sources} sources"
                )
            row = np.empty((1, self.coeffs.shape[1]))
            row[0, 0] = other.mean
            row[0, 1:-1] = other.sensitivities
            row[0, -1] = other.independent
            return row
        raise TypeError(f"cannot combine ArrayForms with {type(other).__name__}")

    def add(self, other: Union["ArrayForms", CanonicalForm]) -> "ArrayForms":
        """Row-wise sum (a single form broadcasts to every row)."""
        rhs = self._coerce(other)
        out = self.coeffs[:, :-1] + rhs[:, :-1]
        indep = np.hypot(self.independent, rhs[:, -1])
        return ArrayForms(np.concatenate([out, indep[:, None]], axis=1))

    def subtract(self, other: Union["ArrayForms", CanonicalForm]) -> "ArrayForms":
        """Row-wise difference (independent sigmas still add in quadrature)."""
        rhs = self._coerce(other)
        out = self.coeffs[:, :-1] - rhs[:, :-1]
        indep = np.hypot(self.independent, rhs[:, -1])
        return ArrayForms(np.concatenate([out, indep[:, None]], axis=1))

    def add_constants(self, values) -> "ArrayForms":
        """Add deterministic per-row offsets to the means."""
        out = self.coeffs.copy()
        out[:, 0] += np.asarray(values, dtype=float)
        return ArrayForms(out)

    def scale(self, factors) -> "ArrayForms":
        """Row-wise scaling (a scalar broadcasts to every row)."""
        factors = np.asarray(factors, dtype=float)
        if factors.ndim == 0:
            out = self.coeffs * factors
        else:
            out = self.coeffs * factors[:, None]
        out[:, -1] = np.abs(out[:, -1])
        return ArrayForms(out)

    def negate(self) -> "ArrayForms":
        """Row-wise negation (independent sigma stays positive)."""
        out = -self.coeffs
        out[:, -1] = self.coeffs[:, -1]
        return ArrayForms(out)

    def covariances(self, other: "ArrayForms") -> np.ndarray:
        """Row-wise covariance with another stack of the same shape."""
        rhs = self._coerce(other)
        return np.einsum("ij,ij->i", self.sensitivities, rhs[:, 1:-1])

    # ------------------------------------------------------------------
    # Clark's statistical max / min, row-wise
    # ------------------------------------------------------------------
    def clark_max(self, other: "ArrayForms") -> "ArrayForms":
        """Row-wise statistical maximum (Clark's moment matching).

        Evaluates exactly the formulas of
        :meth:`repro.variation.canonical.CanonicalForm.max` elementwise,
        including the degenerate branch (perfectly correlated operands
        with equal spread collapse to whichever mean is larger).
        """
        a, b = self.coeffs, self._coerce(other)
        if b.shape != a.shape:
            try:
                b = np.broadcast_to(b, a.shape)
            except ValueError:
                raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}") from None
        return ArrayForms(clark_max_coeffs(a, b))

    def clark_min(self, other: "ArrayForms") -> "ArrayForms":
        """Row-wise statistical minimum via ``min(a, b) = -max(-a, -b)``."""
        return self.negate().clark_max(
            other.negate() if isinstance(other, ArrayForms) else (-other)  # type: ignore[operator]
        ).negate()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayForms(n_forms={self.n_forms}, n_sources={self.n_sources})"


def clark_max_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clark's max of two aligned ``(n_forms, width)`` coefficient
    matrices (the kernel)."""
    mean_a, mean_b = a[:, 0], b[:, 0]
    sens_a, sens_b = a[:, 1:-1], b[:, 1:-1]
    var_a = np.einsum("ij,ij->i", sens_a, sens_a) + a[:, -1] ** 2
    var_b = np.einsum("ij,ij->i", sens_b, sens_b) + b[:, -1] ** 2
    cov = np.einsum("ij,ij->i", sens_a, sens_b)
    theta2 = var_a + var_b - 2.0 * cov
    theta = np.sqrt(np.maximum(theta2, 0.0))
    degenerate = theta < _CLARK_DEGENERATE_TOL

    safe_theta = np.where(degenerate, 1.0, theta)
    alpha = (mean_a - mean_b) / safe_theta
    t = 0.5 * (1.0 + _erf(alpha / _SQRT2))
    phi = _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha)
    one_minus_t = 1.0 - t
    mean = mean_a * t + mean_b * one_minus_t + theta * phi
    second = (
        (var_a + mean_a**2) * t
        + (var_b + mean_b**2) * one_minus_t
        + (mean_a + mean_b) * theta * phi
    )
    variance = np.maximum(second - mean**2, 0.0)
    sens = t[:, None] * sens_a + one_minus_t[:, None] * sens_b
    shared_var = np.einsum("ij,ij->i", sens, sens)
    independent = np.sqrt(np.maximum(variance - shared_var, 0.0))

    out = np.empty_like(a)
    out[:, 0] = mean
    out[:, 1:-1] = sens
    out[:, -1] = independent
    if np.any(degenerate):
        pick_a = mean_a >= mean_b
        deg_a = degenerate & pick_a
        deg_b = degenerate & ~pick_a
        out[deg_a] = a[deg_a]
        out[deg_b] = b[deg_b]
    return out


def clark_max_many(stacks: Sequence[ArrayForms]) -> ArrayForms:
    """Left-fold Clark max over aligned stacks (at least one required)."""
    if not stacks:
        raise ValueError("clark_max_many requires at least one stack")
    result = stacks[0]
    for stack in stacks[1:]:
        result = result.clark_max(stack)
    return result
