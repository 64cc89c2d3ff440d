"""Array-native stacks of first-order canonical forms.

:class:`ArrayForms` is the compiled counterpart of
:class:`~repro.variation.canonical.CanonicalForm`: ``n_forms`` canonical
forms stored as one ``(n_forms, n_sources + 2)`` coefficient matrix

* column ``0`` — the means ``a0``,
* columns ``1 .. n_sources`` — the shared-source sensitivities,
* column ``n_sources + 1`` — the independent sigmas ``a_r`` (>= 0).

A stack supports what the compiled constraint system needs: row-wise
addition and subtraction (independent terms combine in quadrature) and
the moments of every row.  :meth:`ArrayForms.variances` computes each
row's shared variance with the same dot product as
:attr:`CanonicalForm.variance`, so :meth:`ArrayForms.stds` equals
:attr:`CanonicalForm.std` bit for bit (the skew guard bands, and so the
pinned design digests, depend on it).  Clark's statistical max is the
row-wise kernel :func:`clark_max_coeffs`, through which the statistical
timing engine (:mod:`repro.timing.propagate`) sweeps whole levels of the
timing graph; a minimum is a max of negated rows.  Its Gaussian CDF takes
``erf`` from :func:`math.erf`, elementwise, as the scalar path does: one
source on every install, so the designs a build derives do not depend on
which optional packages are installed.  Monte-Carlo
evaluation of all forms against a sample batch, ``means + sensitivities
@ samples`` plus the independent noise, is one matrix multiplication in
:meth:`repro.variation.sampling.MonteCarloSampler.evaluate_array`.

``CanonicalForm`` remains the scalar view: :meth:`ArrayForms.form`
materialises one row, :meth:`ArrayForms.from_forms` stacks scalar forms.
The two paths agree to within a few ulps (the array path evaluates the
same Clark formulas elementwise); the test suite pins the agreement at
``1e-12``.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Union

import numpy as np

from repro.variation.canonical import CanonicalForm

#: Below this spread Clark's max degenerates to picking the larger mean
#: (same constant as the scalar path in :mod:`repro.variation.canonical`).
_CLARK_DEGENERATE_TOL = 1e-12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

_erf_object = np.frompyfunc(math.erf, 1, 1)


def _erf(x: np.ndarray) -> np.ndarray:
    """:func:`math.erf` of every element (see the module docstring)."""
    return _erf_object(x).astype(float)


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
        """Total variance (shared + independent) of every form.

        The shared part is each row's own dot product, as in
        :attr:`CanonicalForm.variance` (``einsum`` sums in another order
        and differs in the last bits).
        """
        sens = self.sensitivities
        shared = np.matmul(sens[:, None, :], sens[:, :, None])[:, 0, 0]
        return shared + self.independent**2

    def stds(self) -> np.ndarray:
        """Total standard deviation of every form."""
        return np.sqrt(np.maximum(self.variances(), 0.0))

    def form(self, index: int) -> CanonicalForm:
        """The scalar view of one row."""
        row = self.coeffs[index]
        return CanonicalForm(float(row[0]), row[1:-1].copy(), float(row[-1]))

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

