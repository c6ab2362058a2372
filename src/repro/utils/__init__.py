"""Shared utilities: seeded RNG helpers and validation."""

from repro.utils.rng import derive_rng, derive_seed, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
)

__all__ = [
    "derive_rng",
    "derive_seed",
    "spawn_rngs",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_shape",
]
