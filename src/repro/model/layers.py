"""Transformer block: pre-norm attention + pre-norm SwiGLU MLP with residuals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.attention import AttentionLayer, AttentionWeights
from repro.model.config import ModelConfig
from repro.model.kv_cache import LayerKVCache
from repro.model.mlp import MLPLayer, MLPWeights, RMSNorm


@dataclass(frozen=True)
class BlockWeights:
    """All weights of one transformer block."""

    attention: AttentionWeights
    mlp: MLPWeights
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


class TransformerBlock:
    """One pre-norm decoder block."""

    def __init__(self, weights: BlockWeights, config: ModelConfig):
        self.config = config
        self.attention = AttentionLayer(weights.attention, config)
        self.mlp = MLPLayer(weights.mlp)
        self.norm_attn = RMSNorm(weights.norm_attn, enabled=config.use_rmsnorm)
        self.norm_mlp = RMSNorm(weights.norm_mlp, enabled=config.use_rmsnorm)

    def forward_prefill(
        self, hidden: np.ndarray, cache: LayerKVCache, positions: np.ndarray
    ) -> np.ndarray:
        """Process a block of tokens (appends K/V to ``cache``)."""
        attn_out = self.attention.forward_prefill(
            self.norm_attn.forward(hidden), cache, positions
        )
        hidden = hidden + attn_out
        mlp_out = self.mlp.forward(self.norm_mlp.forward(hidden))
        return hidden + mlp_out

    def forward_decode(
        self, hidden: np.ndarray, cache: LayerKVCache, position: int
    ) -> np.ndarray:
        """Process a single token (appends its K/V to ``cache``)."""
        attn_out = self.attention.forward_decode(
            self.norm_attn.forward(hidden), cache, position
        )
        hidden = hidden + attn_out
        mlp_out = self.mlp.forward(self.norm_mlp.forward(hidden))
        return hidden + mlp_out

    def forward_decode_batch(
        self,
        hidden: np.ndarray,
        caches: Sequence[LayerKVCache],
        positions: Sequence[int],
    ) -> np.ndarray:
        """Process one token per sequence for ``n`` independent sequences.

        Norms, residual adds and activations are computed over the whole
        ``(n, d_model)`` stack (all row-local, so bit-identical to the
        per-sequence path); attention and the MLP GEMMs run per row — see
        :meth:`AttentionLayer.forward_decode_batch` for why batch-shaped
        GEMMs would break batch-composition invariance.
        """
        attn_out = self.attention.forward_decode_batch(
            self.norm_attn.forward(hidden), caches, positions
        )
        hidden = hidden + attn_out
        normed = self.norm_mlp.forward(hidden)
        mlp_out = np.empty_like(hidden)
        for i in range(hidden.shape[0]):
            mlp_out[i] = self.mlp.forward(normed[i : i + 1])[0]
        return hidden + mlp_out
