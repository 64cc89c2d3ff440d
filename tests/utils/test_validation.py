"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive(value, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-1e-9, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")


class TestCheckFraction:
    def test_accepts_one(self):
        assert check_fraction(1.0, "f") == 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "f")
