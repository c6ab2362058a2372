"""Transformer block: pre-norm attention + pre-norm SwiGLU MLP with residuals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.attention import AttentionLayer, AttentionWeights, tiled_matmul
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
        self,
        hidden: np.ndarray,
        cache: LayerKVCache,
        positions: np.ndarray,
        n_out: int | None = None,
    ) -> np.ndarray:
        """Process a block of tokens (appends K/V to ``cache``).

        Returns the last ``n_out`` rows (all by default): the residual is
        sliced to them after attention, so ``wo`` and the MLP run on those
        rows only (see :meth:`AttentionLayer.forward_prefill`).
        """
        attn_out = self.attention.forward_prefill(
            self.norm_attn.forward(hidden), cache, positions, n_out
        )
        hidden = hidden[-attn_out.shape[0] :] + attn_out
        mlp_out = self.mlp.forward(self.norm_mlp.forward(hidden))
        return hidden + mlp_out

    def forward_rows(
        self,
        hidden: np.ndarray,
        caches: Sequence[LayerKVCache],
        positions: np.ndarray,
    ) -> np.ndarray:
        """One decode row per sequence (appends their K/V).

        Norms, residuals and activations are row-local, so they run over
        the whole stack, pad row included; every GEMM runs on 2-row tiles
        (see :meth:`AttentionLayer.forward_rows`).
        """
        attn_out = self.attention.forward_rows(
            self.norm_attn.forward(hidden), caches, positions
        )
        hidden = hidden + attn_out
        return hidden + self.mlp.forward(self.norm_mlp.forward(hidden), tiled_matmul)
