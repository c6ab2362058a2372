"""Tests for repro.utils (rng derivation and validation helpers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import derive_rng, derive_seed, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_changes_with_base_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_changes_with_tags(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_in_range(self):
        for seed in (0, 1, 123456789):
            value = derive_seed(seed, "component")
            assert 0 <= value < 2**63 - 1


class TestDeriveRng:
    def test_same_tags_same_stream(self):
        a = derive_rng(5, "x").standard_normal(4)
        b = derive_rng(5, "x").standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_different_tags_different_stream(self):
        a = derive_rng(5, "x").standard_normal(4)
        b = derive_rng(5, "y").standard_normal(4)
        assert not np.allclose(a, b)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, ["a", "b", "c"])
        assert len(rngs) == 3
        draws = [rng.standard_normal() for rng in rngs]
        assert len(set(draws)) == 3


class TestValidation:
    def test_check_positive_accepts_positive(self):
        check_positive("x", 1.5)

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_positive_allow_zero(self):
        check_positive("x", 0, allow_zero=True)
        with pytest.raises(ValueError):
            check_positive("x", -1, allow_zero=True)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_check_in_range_inclusive(self):
        check_in_range("v", 5, 0, 5)
        with pytest.raises(ValueError):
            check_in_range("v", 5, 0, 5, inclusive=False)

    def test_check_shape_wildcards(self):
        check_shape("a", np.zeros((3, 4)), (None, 4))
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((3, 4)), (None, 5))
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((3, 4)), (3, 4, 1))

