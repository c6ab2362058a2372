"""Tests for the attention layer and transformer blocks (generic machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.attention import PREFILL_TILE, AttentionLayer, softmax
from repro.model.config import ModelConfig
from repro.model.kv_cache import LayerKVCache
from repro.model.mlp import MLPLayer, MLPWeights, RMSNorm, silu
from repro.model.weights import build_random_weights


def _config(n_heads=4, n_kv_heads=4, positional="rope"):
    return ModelConfig(
        name="unit",
        vocab_size=50,
        d_model=32,
        n_layers=2,
        n_heads=n_heads,
        n_kv_heads=n_kv_heads,
        d_ff=64,
        max_seq_len=64,
        positional=positional,
        use_rmsnorm=True,
    )


def _attention_layer(config, seed=0):
    weights = build_random_weights(config, seed=seed, scale=0.2)
    return AttentionLayer(weights.blocks[0].attention, config)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(3, 7))
        probs = softmax(x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)

    def test_stable_with_large_logits(self):
        probs = softmax(np.array([1e4, 1e4 - 1.0]))
        assert np.isfinite(probs).all()
        assert probs[0] > probs[1]


class TestAttentionLayer:
    def test_output_shape(self, rng):
        config = _config()
        layer = _attention_layer(config)
        cache = LayerKVCache(config.n_kv_heads, config.head_dim, 64)
        hidden = rng.normal(size=(6, config.d_model)).astype(np.float32)
        out = layer.forward_prefill(hidden, cache, np.arange(6))
        assert out.shape == (6, config.d_model)
        assert cache.length == 6

    def test_causality(self, rng):
        """Changing a future token must not change earlier outputs."""
        config = _config()
        layer = _attention_layer(config)
        hidden = rng.normal(size=(5, config.d_model)).astype(np.float32)
        cache_a = LayerKVCache(config.n_kv_heads, config.head_dim, 16)
        out_a = layer.forward_prefill(hidden, cache_a, np.arange(5))
        modified = hidden.copy()
        modified[4] += 3.0
        cache_b = LayerKVCache(config.n_kv_heads, config.head_dim, 16)
        out_b = layer.forward_prefill(modified, cache_b, np.arange(5))
        np.testing.assert_allclose(out_a[:4], out_b[:4], atol=1e-5)
        assert not np.allclose(out_a[4], out_b[4])

    def test_decode_matches_prefill(self, rng):
        """Prefilling N tokens equals prefilling N-1 then decoding the last."""
        config = _config(positional="table")
        layer = _attention_layer(config)
        hidden = rng.normal(size=(5, config.d_model)).astype(np.float32)
        cache_full = LayerKVCache(config.n_kv_heads, config.head_dim, 16)
        out_full = layer.forward_prefill(hidden, cache_full, np.arange(5))
        cache_inc = LayerKVCache(config.n_kv_heads, config.head_dim, 16)
        layer.forward_prefill(hidden[:4], cache_inc, np.arange(4))
        padded = np.vstack([hidden[4:5], np.zeros_like(hidden[:1])])
        out_last = layer.forward_rows(padded, [cache_inc], np.array([4, 0]))
        np.testing.assert_allclose(out_full[4:5], out_last[:1], atol=1e-5)
        np.testing.assert_allclose(cache_full.keys(), cache_inc.keys(), atol=1e-6)

    def test_gqa_matches_mha_with_repeated_heads(self, rng):
        """A GQA layer equals MHA whose KV weights are shared within groups."""
        config_gqa = _config(n_heads=4, n_kv_heads=2, positional="none")
        weights = build_random_weights(config_gqa, seed=1, scale=0.2)
        attn_gqa = AttentionLayer(weights.blocks[0].attention, config_gqa)

        config_mha = _config(n_heads=4, n_kv_heads=4, positional="none")
        shared = weights.blocks[0].attention
        from repro.model.attention import AttentionWeights

        attn_mha = AttentionLayer(
            AttentionWeights(
                wq=shared.wq,
                wk=np.repeat(shared.wk, 2, axis=0),
                wv=np.repeat(shared.wv, 2, axis=0),
                wo=shared.wo,
            ),
            config_mha,
        )
        hidden = rng.normal(size=(6, config_gqa.d_model)).astype(np.float32)
        cache_a = LayerKVCache(2, config_gqa.head_dim, 16)
        cache_b = LayerKVCache(4, config_mha.head_dim, 16)
        out_a = attn_gqa.forward_prefill(hidden, cache_a, np.arange(6))
        out_b = attn_mha.forward_prefill(hidden, cache_b, np.arange(6))
        np.testing.assert_allclose(out_a, out_b, atol=1e-4)


def textbook_attend(layer, q, keys, values, positions):
    """The full-square masked-softmax formulation: the tiled kernel's oracle."""
    k_heads = layer._expand_kv_heads(keys).transpose(1, 2, 0)
    v_heads = layer._expand_kv_heads(values).transpose(1, 0, 2)
    logits = (q.transpose(1, 0, 2) @ k_heads) * np.float32(layer._scale)
    mask = np.arange(keys.shape[0])[None, :] > np.asarray(positions)[:, None]
    probs = softmax(np.where(mask[None], np.float32(-1e9), logits))
    context = (probs @ v_heads).transpose(1, 0, 2).reshape(q.shape[0], -1)
    return context @ layer.weights.wo.reshape(context.shape[1], -1)


#: ``n_q`` values every seed must cover: one row short of a tile, exactly
#: one tile, one row over, a short block, and several tiles with a ragged end.
TILE_EDGE_ROWS = (PREFILL_TILE - 1, PREFILL_TILE, PREFILL_TILE + 1, 7, 3 * PREFILL_TILE + 5)


class TestTiledPrefillKernel:
    @pytest.mark.parametrize("n_kv_heads", [4, 2, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_textbook_masked_softmax(self, seed, n_kv_heads):
        """Random ``(n_q, cache prefix, gqa_group)``: outputs within 1e-5."""
        rng = np.random.default_rng(seed)
        config = _config(n_heads=4, n_kv_heads=n_kv_heads, positional="none")
        layer = _attention_layer(config, seed=seed)
        for n_q in (*TILE_EDGE_ROWS, int(rng.integers(2, 2 * PREFILL_TILE))):
            # Zero is the one-shot prefill; anything else a later chunk.
            offset = int(rng.choice([0, 1, PREFILL_TILE - 3, 200]))
            n_kv = offset + n_q
            q = rng.standard_normal((n_q, 4, config.head_dim), dtype=np.float32)
            keys = rng.standard_normal(
                (n_kv, n_kv_heads, config.head_dim), dtype=np.float32
            )
            values = rng.standard_normal(keys.shape, dtype=np.float32)
            positions = np.arange(offset, n_kv)
            out = layer.attend(q, keys, values, positions)
            assert out.dtype == np.float32
            np.testing.assert_allclose(
                out, textbook_attend(layer, q, keys, values, positions), atol=1e-5
            )

    def test_chunked_prefill_matches_one_shot(self, rng):
        """Chunks that split tiles differently stay within tolerance."""
        config = _config(positional="table")
        n = 2 * PREFILL_TILE + 40
        hidden = rng.normal(size=(n, config.d_model)).astype(np.float32)
        layer = _attention_layer(config)
        one_shot = layer.forward_prefill(
            hidden, LayerKVCache(config.n_kv_heads, config.head_dim, n), np.arange(n)
        )
        for chunk in (48, PREFILL_TILE, 200):
            cache = LayerKVCache(config.n_kv_heads, config.head_dim, n)
            parts = [
                layer.forward_prefill(
                    hidden[lo : lo + chunk], cache, np.arange(lo, min(lo + chunk, n))
                )
                for lo in range(0, n, chunk)
            ]
            np.testing.assert_allclose(np.concatenate(parts), one_shot, atol=1e-5)

    def test_rejects_queries_that_are_not_the_cache_tail(self, rng):
        config = _config(positional="none")
        layer = _attention_layer(config)
        q = rng.standard_normal((2, 4, config.head_dim), dtype=np.float32)
        kv = rng.standard_normal((5, 4, config.head_dim), dtype=np.float32)
        with pytest.raises(ValueError, match="last 2 of 5 cache rows"):
            layer.attend(q, kv, kv, np.asarray([1, 4]))


class TestMLPAndNorm:
    def test_silu_values(self):
        assert silu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert silu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)

    def test_mlp_shape(self, rng):
        weights = MLPWeights(
            w_gate=rng.normal(size=(8, 16)).astype(np.float32),
            w_up=rng.normal(size=(8, 16)).astype(np.float32),
            w_down=rng.normal(size=(16, 8)).astype(np.float32),
        )
        out = MLPLayer(weights).forward(rng.normal(size=(3, 8)).astype(np.float32))
        assert out.shape == (3, 8)

    def test_zero_down_projection_gives_zero(self, rng):
        weights = MLPWeights(
            w_gate=rng.normal(size=(8, 16)).astype(np.float32),
            w_up=rng.normal(size=(8, 16)).astype(np.float32),
            w_down=np.zeros((16, 8), dtype=np.float32),
        )
        out = MLPLayer(weights).forward(rng.normal(size=(3, 8)).astype(np.float32))
        np.testing.assert_array_equal(out, 0)

    def test_rmsnorm_unit_rms(self, rng):
        norm = RMSNorm(np.ones(16), enabled=True)
        x = rng.normal(0, 5, size=(4, 16)).astype(np.float32)
        out = norm.forward(x)
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_rmsnorm_disabled_is_identity(self, rng):
        norm = RMSNorm(np.ones(16), enabled=False)
        x = rng.normal(size=(4, 16)).astype(np.float32)
        np.testing.assert_array_equal(norm.forward(x), x)
