"""SwiGLU feed-forward block and RMSNorm."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.profiling import span as profiling_span


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation."""
    x = np.asarray(x, dtype=np.float32)
    return x / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class MLPWeights:
    """SwiGLU weights: ``w_gate``/``w_up`` ``(d_model, d_ff)``, ``w_down`` ``(d_ff, d_model)``."""

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


class MLPLayer:
    """SwiGLU feed-forward layer: ``(silu(x W_g) * (x W_u)) W_d``."""

    def __init__(self, weights: MLPWeights):
        self.weights = weights
        # One [W_gate | W_up] GEMM per forward instead of two: sgemm output
        # columns are independent dot products, so the two halves are
        # bit-identical to the separate GEMMs (merged-projection parity
        # test covers this layer too).
        self._w_gate_up = np.ascontiguousarray(
            np.concatenate([weights.w_gate, weights.w_up], axis=1)
        )
        self._d_ff = weights.w_gate.shape[1]

    def forward(
        self,
        hidden: np.ndarray,
        matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.matmul,
    ) -> np.ndarray:
        """Apply the feed-forward transform to ``(n, d_model)`` hidden states.

        ``matmul`` runs both GEMMs: a plain product for prefill, 2-row
        tiles (:func:`~repro.model.attention.tiled_matmul`) for decode rows.
        """
        with profiling_span("mlp"):
            fused = matmul(hidden, self._w_gate_up)
            gate = fused[:, : self._d_ff]
            up = fused[:, self._d_ff :]
            # silu(gate) * up with in-place temporaries: the same exp/add/
            # divide/multiply scalar ops as `silu`, minus the allocations.
            act = np.exp(-gate)
            act += 1.0
            np.divide(gate, act, out=act)
            act *= up
            out = matmul(act, self.weights.w_down)
            return out if out.dtype == np.float32 else out.astype(np.float32)


class RMSNorm:
    """Root-mean-square layer normalisation with a learned gain.

    When ``enabled`` is ``False`` the layer is the identity; the constructed
    retrieval models disable normalisation so the hand-built subspace
    amplitudes are preserved exactly.
    """

    def __init__(self, weight: np.ndarray, *, enabled: bool = True, eps: float = 1e-6):
        self.weight = np.asarray(weight, dtype=np.float32)
        self.enabled = enabled
        self.eps = eps

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        """Normalise ``(n, d_model)`` hidden states."""
        if not self.enabled:
            return np.asarray(hidden, dtype=np.float32)
        hidden = np.asarray(hidden, dtype=np.float32)
        rms = np.sqrt(np.mean(hidden**2, axis=-1, keepdims=True) + self.eps)
        # Same divide-then-multiply op sequence as `hidden / rms * weight`,
        # reusing the quotient buffer for the gain.
        out = hidden / rms
        out *= self.weight
        return out
