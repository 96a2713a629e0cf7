"""Tests for the internal validation helpers (repro._validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._validation import (
    check_eps_hat,
    check_epsilon,
    check_k_z,
    check_non_negative_int,
    check_points,
    check_positive_int,
    check_random_state,
    check_weights,
)
from repro.exceptions import DatasetError, InvalidParameterError


class TestCheckPoints:
    def test_list_of_lists(self):
        array = check_points([[1, 2], [3, 4]])
        assert array.dtype == np.float64
        assert array.shape == (2, 2)

    def test_one_dimensional_reshaped(self):
        assert check_points([1.0, 2.0]).shape == (2, 1)

    def test_three_dimensional_rejected(self):
        with pytest.raises(DatasetError):
            check_points(np.zeros((2, 2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            check_points(np.zeros((0, 3)))

    def test_infinite_rejected(self):
        with pytest.raises(DatasetError):
            check_points([[np.inf]])

    def test_contiguous_output(self):
        array = check_points(np.asfortranarray(np.zeros((4, 3))))
        assert array.flags["C_CONTIGUOUS"]


class TestIntegerChecks:
    def test_positive_int(self):
        assert check_positive_int(np.int64(3), name="k") == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(0, name="k")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(True, name="k")

    def test_positive_int_rejects_float(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(2.5, name="k")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, name="z") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_non_negative_int(-1, name="z")


class TestCheckEpsilon:
    def test_valid(self):
        assert check_epsilon(0.5) == 0.5

    def test_upper_bound_inclusive(self):
        assert check_epsilon(1.0) == 1.0

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_epsilon(0.0)

    def test_rejects_above_upper(self):
        with pytest.raises(InvalidParameterError):
            check_epsilon(1.5)

    def test_custom_upper(self):
        assert check_epsilon(3.0, upper=5.0) == 3.0

    def test_rejects_non_numeric(self):
        with pytest.raises(InvalidParameterError):
            check_epsilon("a lot")


class TestCheckEpsHat:
    @pytest.mark.parametrize("value", [0.0, 0.25, 3.0])
    def test_valid(self, value):
        assert check_eps_hat(value) == value

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf"), "a lot"])
    def test_rejects_negative_non_finite_and_non_numeric(self, value):
        with pytest.raises(InvalidParameterError):
            check_eps_hat(value)


class TestCheckKZ:
    def test_valid(self):
        assert check_k_z(10, 3, 2) == (3, 2)

    def test_k_larger_than_n(self):
        with pytest.raises(InvalidParameterError):
            check_k_z(5, 6)

    def test_z_equal_to_n(self):
        with pytest.raises(InvalidParameterError):
            check_k_z(5, 1, 5)


class TestCheckWeights:
    def test_valid(self):
        weights = check_weights([1.0, 2.0], 2)
        assert weights.dtype == np.float64

    def test_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            check_weights([1.0], 2)

    def test_non_positive(self):
        with pytest.raises(InvalidParameterError):
            check_weights([1.0, 0.0], 2)


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seeds(self):
        a = check_random_state(7).integers(1000)
        b = check_random_state(7).integers(1000)
        assert a == b

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert check_random_state(generator) is generator

    def test_invalid_type(self):
        with pytest.raises(InvalidParameterError):
            check_random_state("seed")
