"""Small argument-validation helpers shared across the library."""

from __future__ import annotations


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` lies in ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` lies in ``(0, 1]``."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    return value
