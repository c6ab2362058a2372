"""Tests for the mixed-precision chunked cache and Algorithm-1 computation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ChunkedLayerCache, unordered_storage_bytes
from repro.core.config import CocktailConfig
from repro.core.computation import (
    blockwise_matches_dense,
    chunk_level_decode_attention,
    dense_decode_attention,
    simple_fqm_attention_demo,
)
from repro.core.reorder import token_reorder_permutation
from repro.quant.dtypes import BitWidth
from repro.quant.uniform import quantize_uniform
from repro.serving.backends import PrefillJob
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest


def _make_inputs(rng, n_context=24, n_kv_heads=2, head_dim=8, chunk_size=4):
    k = rng.normal(0, 1, (n_context, n_kv_heads, head_dim)).astype(np.float32)
    v = rng.normal(0, 1, (n_context, n_kv_heads, head_dim)).astype(np.float32)
    n_chunks = n_context // chunk_size
    chunk_bits = [
        [BitWidth.INT2, BitWidth.INT4, BitWidth.FP16][i % 3] for i in range(n_chunks)
    ]
    spans = [(i * chunk_size, (i + 1) * chunk_size) for i in range(n_chunks)]
    token_bits = np.repeat([int(b) for b in chunk_bits], chunk_size)
    perm = token_reorder_permutation(spans, chunk_bits, n_context)
    return k, v, token_bits, perm


class TestChunkedLayerCache:
    def test_segment_structure(self, rng):
        k, v, token_bits, perm = _make_inputs(rng)
        cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
        assert [seg.bits for seg in cache.segments] == [
            BitWidth.INT2, BitWidth.INT4, BitWidth.FP16,
        ]
        assert sum(seg.n_tokens for seg in cache.segments) == 24

    def test_original_order_roundtrip_fp16_segment_exact(self, rng):
        k, v, token_bits, perm = _make_inputs(rng)
        cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
        k_restored = cache.keys_original_order()
        fp16_mask = token_bits == int(BitWidth.FP16)
        np.testing.assert_allclose(k_restored[fp16_mask], k[fp16_mask], atol=1e-6)
        # Quantized segments are close but not exact.
        assert not np.allclose(k_restored[~fp16_mask], k[~fp16_mask])
        assert np.abs(k_restored[~fp16_mask] - k[~fp16_mask]).max() < 1.5

    def test_reordered_view_matches_permutation(self, rng):
        k, v, token_bits, perm = _make_inputs(rng)
        cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
        np.testing.assert_allclose(
            cache.keys_reordered(), cache.keys_original_order()[perm], atol=1e-6
        )

    def test_storage_bytes_less_than_fp16(self, rng):
        k, v, token_bits, perm = _make_inputs(rng)
        cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
        assert cache.storage_bytes() < cache.fp16_storage_bytes()
        assert cache.compression_ratio() > 1.0

    def test_invalid_permutation_rejected(self, rng):
        k, v, token_bits, _ = _make_inputs(rng)
        with pytest.raises(ValueError):
            ChunkedLayerCache.from_dense(k, v, token_bits, np.zeros(len(token_bits), dtype=int))

    def test_mismatched_token_bits_rejected(self, rng):
        k, v, _, perm = _make_inputs(rng)
        with pytest.raises(ValueError):
            ChunkedLayerCache.from_dense(k, v, np.full(3, 4), perm)

    def test_unordered_storage_exceeds_fp16(self):
        token_bits = np.array([2, 16, 4, 16, 2, 4] * 8)
        unordered = unordered_storage_bytes(token_bits, n_kv_heads=2, head_dim=8)
        fp16_payload = 2 * token_bits.size * 2 * 8 * 2
        assert unordered > fp16_payload


class TestChunkLevelComputation:
    def test_blockwise_equals_dense_on_dequantized_cache(self, rng):
        """Equations 4-5: reordered blockwise attention equals the dense result."""
        k, v, token_bits, perm = _make_inputs(rng)
        cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
        q = rng.normal(size=(4, 8)).astype(np.float32)
        decode_k = rng.normal(size=(3, 2, 8)).astype(np.float32)
        decode_v = rng.normal(size=(3, 2, 8)).astype(np.float32)
        assert blockwise_matches_dense(
            q, cache, decode_k, decode_v, gqa_group=2, scale=1 / np.sqrt(8)
        )

    def test_blockwise_without_decode_region(self, rng):
        k, v, token_bits, perm = _make_inputs(rng)
        cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
        q = rng.normal(size=(2, 8)).astype(np.float32)
        empty = np.zeros((0, 2, 8), dtype=np.float32)
        out = chunk_level_decode_attention(q, cache, empty, empty, scale=0.25)
        dense = dense_decode_attention(
            q, cache.keys_original_order(), cache.values_original_order(), scale=0.25
        )
        np.testing.assert_allclose(out, dense, atol=1e-5)

    def test_permutation_invariance_of_dense_attention(self, rng):
        """Shuffling K/V rows jointly does not change the attention output."""
        keys = rng.normal(size=(16, 1, 8)).astype(np.float32)
        values = rng.normal(size=(16, 1, 8)).astype(np.float32)
        q = rng.normal(size=(1, 8)).astype(np.float32)
        perm = rng.permutation(16)
        out_a = dense_decode_attention(q, keys, values, scale=0.3)
        out_b = dense_decode_attention(q, keys[perm], values[perm], scale=0.3)
        np.testing.assert_allclose(out_a, out_b, atol=1e-5)

    def test_fqm_demo_matches_dense_softmax(self, rng):
        q = rng.normal(size=(1, 8)).astype(np.float32)
        k = rng.normal(size=(10, 8)).astype(np.float32)
        v = rng.normal(size=(10, 8)).astype(np.float32)
        kq = quantize_uniform(k, BitWidth.INT8, axis=-1)
        vq = quantize_uniform(v, BitWidth.INT8, axis=-1)
        out = simple_fqm_attention_demo(q, kq, vq, scale=0.5)
        assert out.shape == (1, 8)
        dense = dense_decode_attention(
            q, kq.dequantize()[:, None, :], vq.dequantize()[:, None, :], scale=0.5
        )
        np.testing.assert_allclose(out, dense, atol=1e-4)


class TestAlgorithmOneOnServedStorage:
    def test_blockwise_over_chunked_caches_equals_attend_over_packed_pages(
        self, vocab, tokenizer, retrieval_model, tiny_samples, rng
    ):
        """Algorithm 1 over the chunked segments of a request's prefill
        computes what the ``blockwise`` backend serves: attention over its
        packed Cocktail pages (decoded into the cache's mirrors), layer by
        layer."""
        engine = InferenceEngine(
            retrieval_model,
            tokenizer,
            CocktailConfig(chunk_size=16),
            lexicon=vocab.lexicon,
        )
        sample = tiny_samples[0]
        request = GenerationRequest(
            sample.context_words, sample.query_words, backend="blockwise"
        )
        job = PrefillJob(retrieval_model, tokenizer, request)
        job.run()
        prepared = engine.get_backend("blockwise").prepare(request, job)
        try:
            cache, scratch, plan = prepared.cache, job.cache, prepared.plan
            assert {2, 4, 16} <= set(plan.token_bits.tolist())
            kv_bytes = cache.measured_bytes()
            assert kv_bytes["context_bytes"] < kv_bytes["context_fp16_bytes"]
            n_context = scratch.n_context
            chunked = engine.quantizer.build_chunked_caches(scratch, plan)
            config = retrieval_model.config
            positions = np.asarray([cache.length - 1])
            for layer_index, block in enumerate(retrieval_model.blocks):
                attention = block.attention
                q = rng.normal(size=(config.n_heads, config.head_dim))
                q = q.astype(np.float32)
                served = attention.attend(
                    q[None],
                    None,
                    None,
                    positions,
                    kv_mirrors=attention._head_major(cache.layers[layer_index]),
                )[0]
                query_rows = scratch.layers[layer_index]
                context = chunk_level_decode_attention(
                    q,
                    chunked[layer_index],
                    query_rows.keys()[n_context:],
                    query_rows.values()[n_context:],
                    gqa_group=config.gqa_group,
                    scale=attention._scale,
                )
                blockwise = np.einsum("he,hed->d", context, attention.weights.wo)
                np.testing.assert_allclose(blockwise, served, atol=1e-5)
        finally:
            prepared.cache.release()


@settings(max_examples=25, deadline=None)
@given(
    n_chunks=st.integers(1, 8),
    chunk_size=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_property_blockwise_always_matches_dense(n_chunks, chunk_size, seed):
    """The Algorithm-1 computation equals dense attention for any chunking."""
    rng = np.random.default_rng(seed)
    n_context = n_chunks * chunk_size
    k = rng.normal(size=(n_context, 1, 4)).astype(np.float32)
    v = rng.normal(size=(n_context, 1, 4)).astype(np.float32)
    chunk_bits = [
        [BitWidth.INT2, BitWidth.INT4, BitWidth.FP16][rng.integers(3)] for _ in range(n_chunks)
    ]
    spans = [(i * chunk_size, (i + 1) * chunk_size) for i in range(n_chunks)]
    token_bits = np.repeat([int(b) for b in chunk_bits], chunk_size)
    perm = token_reorder_permutation(spans, chunk_bits, n_context)
    cache = ChunkedLayerCache.from_dense(k, v, token_bits, perm)
    q = rng.normal(size=(2, 4)).astype(np.float32)
    decode_k = rng.normal(size=(1, 1, 4)).astype(np.float32)
    decode_v = rng.normal(size=(1, 1, 4)).astype(np.float32)
    assert blockwise_matches_dense(q, cache, decode_k, decode_v, gqa_group=2, scale=0.5)
