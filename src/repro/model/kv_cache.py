"""Dense per-layer KV cache.

The cache grows as tokens are appended (prefill appends a block, each decode
step appends one row).  The context region (the first ``n_context`` rows) is
what the quantizers in :mod:`repro.baselines` and :mod:`repro.core` operate
on; generated tokens always stay at full precision, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerKVCache:
    """KV cache of a single transformer layer.

    K and V are float32 arrays of which the first :attr:`length` rows are
    valid.  Storage is allocated lazily with geometric growth up to
    :attr:`capacity`: a freshly created (or cloned) cache only holds its
    valid region, so the serving engine's per-request prefill scratch and
    the evaluation harness's clones do not pay for zero-initialising
    ``capacity`` rows they never touch.
    """

    n_kv_heads: int
    head_dim: int
    capacity: int
    length: int = 0
    k: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        self.k = np.zeros((0, self.n_kv_heads, self.head_dim), dtype=np.float32)
        self.v = np.zeros((0, self.n_kv_heads, self.head_dim), dtype=np.float32)

    def reserve(self, n_rows: int) -> None:
        """Allocate storage for ``n_rows`` rows up front (no regrowth below that)."""
        self._grow_to(min(n_rows, self.capacity))

    def _grow_to(self, n_rows: int) -> None:
        """Ensure at least ``n_rows`` rows are allocated (amortised doubling)."""
        allocated = self.k.shape[0]
        if allocated >= n_rows:
            return
        new_rows = min(self.capacity, max(n_rows, 2 * allocated))
        k = np.zeros((new_rows, self.n_kv_heads, self.head_dim), dtype=np.float32)
        v = np.zeros_like(k)
        k[: self.length] = self.k[: self.length]
        v[: self.length] = self.v[: self.length]
        self.k = k
        self.v = v

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append ``(n, n_kv_heads, head_dim)`` K/V rows to the cache."""
        k_new = np.asarray(k_new, dtype=np.float32)
        v_new = np.asarray(v_new, dtype=np.float32)
        if k_new.shape != v_new.shape:
            raise ValueError(f"K/V shape mismatch: {k_new.shape} vs {v_new.shape}")
        n = k_new.shape[0]
        if self.length + n > self.capacity:
            raise ValueError(
                f"cache overflow: length {self.length} + {n} exceeds capacity {self.capacity}"
            )
        self._grow_to(self.length + n)
        self.k[self.length : self.length + n] = k_new
        self.v[self.length : self.length + n] = v_new
        self.length += n

    def keys(self) -> np.ndarray:
        """Valid K rows, shape ``(length, n_kv_heads, head_dim)``."""
        return self.k[: self.length]

    def values(self) -> np.ndarray:
        """Valid V rows, shape ``(length, n_kv_heads, head_dim)``."""
        return self.v[: self.length]

    def overwrite_prefix(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Overwrite the first ``len(k_new)`` rows (used by fake quantization)."""
        n = k_new.shape[0]
        if n > self.length:
            raise ValueError(f"cannot overwrite {n} rows; cache holds {self.length}")
        self.k[:n] = np.asarray(k_new, dtype=np.float32)
        self.v[:n] = np.asarray(v_new, dtype=np.float32)

    def clone(self) -> "LayerKVCache":
        """Deep copy of this layer cache (allocates only the valid region)."""
        copy = LayerKVCache(self.n_kv_heads, self.head_dim, self.capacity)
        copy.k = self.k[: self.length].copy()
        copy.v = self.v[: self.length].copy()
        copy.length = self.length
        return copy


@dataclass
class ModelKVCache:
    """KV caches for all layers of a model."""

    n_layers: int
    n_kv_heads: int
    head_dim: int
    capacity: int
    layers: list[LayerKVCache] = field(init=False, repr=False)
    n_context: int = 0

    def __post_init__(self) -> None:
        self.layers = [
            LayerKVCache(self.n_kv_heads, self.head_dim, self.capacity)
            for _ in range(self.n_layers)
        ]

    @property
    def length(self) -> int:
        """Number of cached tokens (identical across layers)."""
        return self.layers[0].length if self.layers else 0

    def layer(self, index: int) -> LayerKVCache:
        """Return the cache of layer ``index``."""
        return self.layers[index]

    def has_capacity(self) -> bool:
        """Whether one more decode token can be absorbed."""
        return self.length < self.capacity

    def live_tokens(self) -> int:
        """KV rows currently held (same duck surface as the paged cache)."""
        return self.length

    def mark_context(self, n_context: int) -> None:
        """Record how many leading tokens belong to the (quantizable) context."""
        if n_context < 0 or n_context > self.length:
            raise ValueError(
                f"n_context must be in [0, {self.length}], got {n_context}"
            )
        self.n_context = n_context

    def context_kv(self, layer_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Return copies of the context-region K and V of one layer."""
        layer = self.layers[layer_index]
        return layer.k[: self.n_context].copy(), layer.v[: self.n_context].copy()

    def replace_context_kv(
        self, layer_index: int, k_new: np.ndarray, v_new: np.ndarray
    ) -> None:
        """Replace the context-region K and V of one layer (fake quantization)."""
        if k_new.shape[0] != self.n_context or v_new.shape[0] != self.n_context:
            raise ValueError(
                f"expected {self.n_context} context rows, got {k_new.shape[0]}"
            )
        layer = self.layers[layer_index]
        layer.k[: self.n_context] = np.asarray(k_new, dtype=np.float32)
        layer.v[: self.n_context] = np.asarray(v_new, dtype=np.float32)

    def snapshot(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return per-layer copies of all valid K/V rows."""
        return [(layer.keys().copy(), layer.values().copy()) for layer in self.layers]

    def clone(self) -> "ModelKVCache":
        """Deep copy of the whole cache (used to evaluate several quantizers
        against the same prefill without re-running it)."""
        copy = ModelKVCache(
            n_layers=self.n_layers,
            n_kv_heads=self.n_kv_heads,
            head_dim=self.head_dim,
            capacity=self.capacity,
        )
        copy.layers = [layer.clone() for layer in self.layers]
        copy.n_context = self.n_context
        return copy
