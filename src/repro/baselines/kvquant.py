"""KVQuant-style token-level mixed-precision quantization.

KVQuant keeps a small fraction of *outlier tokens* at full precision and
quantizes the remaining tokens with a non-uniform ("nuq") datatype whose
levels are fitted to the value distribution.  The outlier ranking is a
token-level search over the whole cache, which the paper identifies as slow;
this cost is reflected in the plan's ``search_seconds``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import (
    KVCacheQuantizer,
    KVQuantizationPlan,
    QuantizationRequest,
)
from repro.model.kv_cache import ModelKVCache
from repro.quant.dtypes import BitWidth


class KVQuantQuantizer(KVCacheQuantizer):
    """Token-level mixed precision: FP16 outlier tokens + nuq low-bit rest."""

    name = "kvquant"
    display_name = "KVQuant"
    #: The outlier ranking reads the prefilled K rows.
    plan_reads_cache = True

    def __init__(
        self,
        bits: BitWidth | int = BitWidth.INT4,
        *,
        outlier_fraction: float = 0.01,
        search_us_per_token_layer: float = 0.08,
    ):
        self.bits = BitWidth.from_bits(int(bits))
        if not 0.0 <= outlier_fraction < 1.0:
            raise ValueError(f"outlier_fraction must be in [0, 1), got {outlier_fraction}")
        self.outlier_fraction = outlier_fraction
        self.search_us_per_token_layer = search_us_per_token_layer

    # -- planning ---------------------------------------------------------

    def _token_importance(self, cache: ModelKVCache, context_len: int) -> np.ndarray:
        """Outlier score per context token: mean K magnitude across layers/heads."""
        scores = np.zeros(context_len, dtype=np.float64)
        for layer_index in range(cache.n_layers):
            k = cache.layer(layer_index).k[:context_len]
            scores += np.abs(k).mean(axis=(1, 2))
        return scores / max(cache.n_layers, 1)

    def plan(self, request: QuantizationRequest) -> KVQuantizationPlan:
        """Rank tokens by K magnitude and keep the top fraction at FP16."""
        context_len = request.context_len
        token_bits = np.full(context_len, int(self.bits), dtype=np.int64)
        n_outliers = int(round(self.outlier_fraction * context_len))
        if request.cache is not None and n_outliers > 0:
            importance = self._token_importance(request.cache, context_len)
            outlier_indices = np.argsort(importance)[::-1][:n_outliers]
            token_bits[outlier_indices] = int(BitWidth.FP16)
        n_layers = request.cache.n_layers if request.cache is not None else 32
        search_seconds = (
            self.search_us_per_token_layer * context_len * n_layers / 1e6
        )
        return KVQuantizationPlan(
            method=self.name,
            context_len=context_len,
            token_bits=token_bits,
            reordered=False,
            search_seconds=search_seconds,
            details={"outlier_fraction": self.outlier_fraction},
        )

    # -- numerics ----------------------------------------------------------

    def _nuq_normalized(self, x: np.ndarray) -> np.ndarray:
        """Distribution-aware non-uniform quantization of one KV tensor.

        Following KVQuant's recipe, the per-channel offset (the dense
        "outlier" structure that is consistent across tokens) is isolated
        first, the residual is scaled per channel, and the scaled residual is
        quantized against a fitted non-uniform codebook; all normalisation is
        inverted after dequantization.  The numerics live in
        :class:`~repro.kvpool.codecs.NuqChannelNormCodec` so this fake-quant
        view and the paged cache's packed storage cannot drift.
        """
        from repro.kvpool.codecs import NuqChannelNormCodec

        codec = NuqChannelNormCodec(x, self.bits)
        return codec.decode(codec.take_codes(), None)

    def apply(self, cache: ModelKVCache, plan: KVQuantizationPlan) -> None:
        """Quantize non-outlier context tokens with normalised nuq codebooks."""
        low_mask = plan.token_bits != int(BitWidth.FP16)
        if not low_mask.any():
            return
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            if k.shape[0] == 0:
                continue
            k[low_mask] = self._nuq_normalized(k[low_mask])
            v[low_mask] = self._nuq_normalized(v[low_mask])
            cache.replace_context_kv(layer_index, k, v)

    def encode_context(self, cache, plan: KVQuantizationPlan, *, start: int = 0):
        """Packed nuq codes per token; outlier tokens stay FP16 float rows.

        The per-channel normalisation and fitted codebook span the whole
        context, so ``start`` only blanks the already-adopted code rows —
        the fit itself always runs over every quantized token.
        """
        from repro.kvpool.codecs import NuqChannelNormCodec, encode_fitted

        encodings = []
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            encodings.append(
                (
                    encode_fitted(
                        k, plan.token_bits, NuqChannelNormCodec, self.bits, start=start
                    ),
                    encode_fitted(
                        v, plan.token_bits, NuqChannelNormCodec, self.bits, start=start
                    ),
                )
            )
        return encodings

    def reuse_fingerprint(
        self, plan: KVQuantizationPlan, context_token_ids: Sequence[int]
    ) -> str | None:
        """The nuq codebooks and channel normalisation are fitted over every
        non-outlier context token, so pages are only shareable between exact
        full-context repeats (same tokens, same outlier assignment — the
        latter already rides in the hashed ``token_bits``)."""
        del plan
        from repro.kvpool.prefix import content_hash

        return (
            f"kvquant/b{int(self.bits)}/o{self.outlier_fraction}/"
            + content_hash(list(context_token_ids))
        )
