"""KIVI-style asymmetric KV-cache quantization.

KIVI's key observation is that K-cache outliers are concentrated in a few
*channels*, so the K cache is quantized per channel while the V cache keeps
the conventional per-token quantization.  Both use the same uniform bitwidth
(INT4 in the paper's comparison setup).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import (
    KVCacheQuantizer,
    KVQuantizationPlan,
    QuantizationRequest,
    uniform_token_bits,
)
from repro.model.kv_cache import ModelKVCache
from repro.quant.dtypes import BitWidth
from repro.quant.schemes import fake_quantize_per_channel, fake_quantize_per_token


class KIVIQuantizer(KVCacheQuantizer):
    """Per-channel K and per-token V uniform quantization."""

    name = "kivi"
    display_name = "KIVI"

    def __init__(self, bits: BitWidth | int = BitWidth.INT4):
        self.bits = BitWidth.from_bits(int(bits))

    def plan(self, request: QuantizationRequest) -> KVQuantizationPlan:
        """Uniform bitwidth for every context token; no search cost."""
        return KVQuantizationPlan(
            method=self.name,
            context_len=request.context_len,
            token_bits=uniform_token_bits(request.context_len, self.bits),
            reordered=True,
            search_seconds=0.0,
            details={"k_scheme": "per-channel", "v_scheme": "per-token"},
        )

    def apply(self, cache: ModelKVCache, plan: KVQuantizationPlan) -> None:
        """Quantize K per channel and V per token for every layer."""
        del plan
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            if k.shape[0] == 0:
                continue
            k_hat = fake_quantize_per_channel(k, self.bits)
            v_hat = fake_quantize_per_token(v, self.bits)
            cache.replace_context_kv(layer_index, k_hat, v_hat)

    def encode_context(self, cache, plan: KVQuantizationPlan, *, start: int = 0):
        """Packed storage: per-channel K codes (shared scales) + per-token V.

        The K scales are fitted across the whole context, so a prefix-reuse
        ``start`` cannot skip the fit — but the per-token V rows below
        ``start`` (adopted already packed) are skipped, and the re-fitted K
        scales are bit-identical to the cached pages' by determinism.
        """
        from repro.kvpool.codecs import (
            PerChannelCodec,
            PerTokenCodec,
            TensorEncoding,
            encode_fitted,
        )

        encodings = []
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            n_tokens, h, d = k.shape
            if n_tokens == 0:
                empty = TensorEncoding(
                    n_tokens=0,
                    n_kv_heads=h,
                    head_dim=d,
                    token_bits=plan.token_bits,
                )
                encodings.append((empty, empty))
                continue
            k_enc = encode_fitted(
                k, plan.token_bits, PerChannelCodec, self.bits, start=start
            )
            v_codec = PerTokenCodec(self.bits, h, d)
            codes = np.zeros((n_tokens, v_codec.code_width), dtype=np.uint8)
            meta = np.zeros((n_tokens, v_codec.meta_width), dtype=np.float32)
            if start < n_tokens:
                codes[start:], meta[start:] = v_codec.encode(v[start:])
            v_enc = TensorEncoding(
                n_tokens=n_tokens,
                n_kv_heads=h,
                head_dim=d,
                token_bits=plan.token_bits,
                codes=codes,
                meta=meta,
                codecs={int(self.bits): v_codec},
            )
            encodings.append((k_enc, v_enc))
        return encodings

    def reuse_fingerprint(
        self, plan: KVQuantizationPlan, context_token_ids: Sequence[int]
    ) -> str | None:
        """KIVI's per-channel K scales are fitted over *all* context tokens,
        so a page's bytes depend on the entire context — only exact
        full-context repeats may share pages.  The full token sequence is
        folded into the fingerprint to enforce that."""
        from repro.kvpool.prefix import content_hash

        del plan
        return f"kivi/b{int(self.bits)}/" + content_hash(list(context_token_ids))
