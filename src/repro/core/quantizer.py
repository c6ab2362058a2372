"""Cocktail behind the common quantizer interface, plus ablation variants."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import (
    KVCacheQuantizer,
    KVQuantizationPlan,
    QuantizationRequest,
    expand_chunk_bits_to_tokens,
    uniform_token_bits,
)
from repro.core.cache import ChunkedLayerCache
from repro.core.config import CocktailConfig
from repro.core.reorder import token_reorder_permutation
from repro.core.search import ChunkQuantizationSearch
from repro.model.kv_cache import ModelKVCache
from repro.quant.dtypes import BitWidth
from repro.quant.group import group_quantize
from repro.retrieval.base import Encoder
from repro.retrieval.registry import get_encoder
from repro.utils.rng import derive_rng


class CocktailQuantizer(KVCacheQuantizer):
    """Chunk-adaptive mixed-precision KV-cache quantization (the paper's method)."""

    name = "cocktail"
    display_name = "Cocktail"

    def __init__(
        self,
        config: CocktailConfig | None = None,
        encoder: Encoder | None = None,
        *,
        lexicon: Mapping[str, str] | None = None,
        seed: int = 0,
    ):
        self.config = config or CocktailConfig()
        self.encoder = encoder or get_encoder(self.config.encoder_name, lexicon, seed=seed)
        self.search = ChunkQuantizationSearch(self.encoder, self.config)
        self.seed = seed

    # -- planning ----------------------------------------------------------

    def _select_chunk_bits(
        self, request: QuantizationRequest
    ) -> tuple[list[BitWidth], float, dict]:
        """Run the chunk-level quantization search (module I)."""
        result = self.search.search(request.chunk_texts, request.query_text)
        details = {
            "scores": result.scores,
            "t_low": result.t_low,
            "t_high": result.t_high,
            "chunk_bits": list(result.chunk_bits),
            "encoder": self.encoder.name,
        }
        return list(result.chunk_bits), result.search_seconds, details

    def plan(self, request: QuantizationRequest) -> KVQuantizationPlan:
        """Assign per-chunk precisions and (optionally) the reorder permutation."""
        if request.n_chunks == 0:
            # Context shorter than one chunk: everything stays FP16.
            return KVQuantizationPlan(
                method=self.name,
                context_len=request.context_len,
                token_bits=uniform_token_bits(request.context_len, BitWidth.FP16),
                reordered=True,
                search_seconds=0.0,
                details={"chunk_bits": []},
            )
        chunk_bits, search_seconds, details = self._select_chunk_bits(request)
        token_bits = expand_chunk_bits_to_tokens(
            request.chunk_spans,
            chunk_bits,
            request.context_len,
            tail_bits=BitWidth.FP16,
        )
        permutation = None
        if self.config.reorder:
            permutation = token_reorder_permutation(
                request.chunk_spans,
                chunk_bits,
                request.context_len,
                tail_span=request.tail_span,
                precision_order=self.config.ladder,
            )
        return KVQuantizationPlan(
            method=self.name,
            context_len=request.context_len,
            token_bits=token_bits,
            reordered=self.config.reorder,
            permutation=permutation,
            search_seconds=search_seconds,
            details=details,
        )

    # -- numerics -----------------------------------------------------------

    def apply(self, cache: ModelKVCache, plan: KVQuantizationPlan) -> None:
        """Fake-quantize each precision group of the context KV cache.

        Per-token groups along the head dimension are used for both K and V,
        matching the quantization performed when building the chunked cache,
        so the dense (fake-quant) decode path and Algorithm 1's blockwise
        reference (:meth:`build_chunked_caches`) see numerically identical
        cache contents.
        """
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            if k.shape[0] == 0:
                continue
            head_dim = k.shape[-1]
            for bits in (self.config.low_bits, self.config.mid_bits):
                mask = plan.token_bits == int(bits)
                if not mask.any():
                    continue
                k[mask] = group_quantize(k[mask], bits, head_dim).dequantize()
                v[mask] = group_quantize(v[mask], bits, head_dim).dequantize()
            cache.replace_context_kv(layer_index, k, v)

    def encode_context(
        self, cache: ModelKVCache, plan: KVQuantizationPlan, *, start: int = 0
    ):
        """Packed per-``(token, head)``-group storage of the context region.

        Uses the exact :func:`~repro.quant.group.group_quantize` numerics
        :meth:`apply` runs, so the paged cache's dequantized gathers match
        the dense fake-quant path bit for bit; only the storage changes
        (bit-packed codes + FP16-accounted scales instead of floats).

        The groups are token-local, so prefix reuse composes chunk-wise:
        ``start`` rows matched in the serving engine's prefix index are not
        re-quantized at all.
        """
        from repro.kvpool.codecs import encode_per_token_groups

        encodings = []
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            encodings.append(
                encode_per_token_groups(
                    k, v, plan.token_bits, k.shape[-1], start=start
                )
            )
        return encodings

    def reuse_fingerprint(
        self, plan: KVQuantizationPlan, context_token_ids: Sequence[int]
    ) -> str | None:
        """Cocktail's groups are per ``(token, head)`` — entirely token-local
        — so a page's packed bytes depend only on its token rows and their
        bitwidths, both covered by the chained block hashes.  A constant
        fingerprint therefore suffices, and it is deliberately shared by
        the dense/cocktail backends and the ablation variants (same
        numerics, different chunk-bit *assignments*): a page packed by one
        warms any of the others whenever tokens and bits agree, even under
        different queries.
        """
        del plan, context_token_ids
        return "cocktail-ptg"

    def build_chunked_caches(
        self, cache: ModelKVCache, plan: KVQuantizationPlan
    ) -> list[ChunkedLayerCache]:
        """Build the per-layer mixed-precision chunked caches (module II)."""
        permutation = plan.permutation
        if permutation is None:
            permutation = np.arange(plan.context_len, dtype=np.int64)
        chunked = []
        for layer_index in range(cache.n_layers):
            k, v = cache.context_kv(layer_index)
            chunked.append(
                ChunkedLayerCache.from_dense(
                    k, v, plan.token_bits, permutation, precision_order=self.config.ladder
                )
            )
        return chunked


class RandomSearchCocktailQuantizer(CocktailQuantizer):
    """Ablation "w/o Module I": same precision budget, randomly assigned chunks.

    The chunk-level search is replaced by a random permutation of the
    searched bitwidths, so the fraction of INT2/INT4/FP16 chunks (and hence
    memory and latency) matches Cocktail while relevant chunks are no longer
    protected — reproducing the accuracy drop of Table V.
    """

    name = "cocktail-random-search"
    display_name = "w/o Module I"

    def _select_chunk_bits(
        self, request: QuantizationRequest
    ) -> tuple[list[BitWidth], float, dict]:
        chunk_bits, _search_seconds, details = super()._select_chunk_bits(request)
        rng = derive_rng(self.seed, "random-assignment", request.context_len, request.query_text)
        shuffled = list(chunk_bits)
        rng.shuffle(shuffled)
        details = dict(details)
        details["chunk_bits"] = list(shuffled)
        details["random_assignment"] = True
        # No encoder search is performed in this ablation, so no search cost.
        return shuffled, 0.0, details


class NoReorderCocktailQuantizer(CocktailQuantizer):
    """Ablation "w/o Module II": searched precisions without chunk reordering.

    Accuracy is unchanged (the same chunks keep the same precision) but the
    mixed-precision layout stays interleaved in memory, which the hardware
    model charges with alignment and fragmentation penalties (Table V).
    """

    name = "cocktail-no-reorder"
    display_name = "w/o Module II"

    def __init__(
        self,
        config: CocktailConfig | None = None,
        encoder: Encoder | None = None,
        *,
        lexicon: Mapping[str, str] | None = None,
        seed: int = 0,
    ):
        config = (config or CocktailConfig()).with_overrides(reorder=False)
        super().__init__(config, encoder, lexicon=lexicon, seed=seed)
