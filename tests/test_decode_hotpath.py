"""Decode hot-path optimizations: every fast path must be bit-identical.

The perf pass replaced full-history re-gathers with incremental tail
fills, separate projection GEMMs with merged-weight GEMMs, and the Python
n-gram scan with a vectorized one.  Each rewrite claims bit-identity with
the code it replaced; these tests pin that claim against the
straightforward reference computation.
"""

from __future__ import annotations

import numpy as np

from repro.kvpool import BlockPool, PagedKVCache, PagedLayerView
from repro.model.attention import _TILE_TRIANGLE, _decode_mask, softmax
from repro.model.config import ModelConfig
from repro.model.mlp import silu
from repro.model.transformer import Transformer
from repro.model.weights import build_random_weights
from repro.serving.spec import NgramProposer


def _assert_identical(fast: np.ndarray, reference: np.ndarray) -> None:
    assert fast.dtype == np.float32
    np.testing.assert_array_equal(fast, reference)


class TestMergedProjectionBitIdentity:
    """Merged-weight GEMM slices equal the separate per-tensor GEMMs.

    sgemm computes each output column as an independent dot product over
    the shared input row, so concatenating weight matrices along the
    output axis cannot change any column's value — the property the
    default-mode merged q/k/v and gate/up GEMMs rely on.
    """

    def test_qkv_slices_match_separate_projections(self, retrieval_model, rng):
        attention = retrieval_model.blocks[0].attention
        hidden = rng.standard_normal(
            (3, attention.config.d_model), dtype=np.float32
        )
        positions = np.asarray([5, 6, 7])
        q_ref = attention.project_q(hidden, positions)
        k_ref, v_ref = attention.project_kv(hidden, positions)
        q, k, v = attention.project_qkv(hidden, positions)
        _assert_identical(q, q_ref)
        _assert_identical(k, k_ref)
        _assert_identical(v, v_ref)

    def test_gate_up_halves_match_separate_gemms(self, retrieval_model, rng):
        mlp = retrieval_model.blocks[0].mlp
        hidden = rng.standard_normal((4, mlp._w_gate_up.shape[0]), dtype=np.float32)
        fused = hidden @ mlp._w_gate_up
        _assert_identical(
            np.ascontiguousarray(fused[:, : mlp._d_ff]), hidden @ mlp.weights.w_gate
        )
        _assert_identical(
            np.ascontiguousarray(fused[:, mlp._d_ff :]), hidden @ mlp.weights.w_up
        )

    def test_mlp_forward_matches_textbook_formulation(self, retrieval_model, rng):
        mlp = retrieval_model.blocks[0].mlp
        hidden = rng.standard_normal((2, mlp._w_gate_up.shape[0]), dtype=np.float32)
        reference = (
            silu(hidden @ mlp.weights.w_gate) * (hidden @ mlp.weights.w_up)
        ) @ mlp.weights.w_down
        _assert_identical(mlp.forward(hidden), reference.astype(np.float32))

    def test_attend_in_place_softmax_matches_softmax(self, retrieval_model, rng):
        """The attend rewrite (in-place scale/softmax, pre-flattened wo)
        reproduces the original formulation bit-for-bit."""
        attention = retrieval_model.blocks[0].attention
        config = attention.config
        n_kv = 9
        q = rng.standard_normal(
            (1, config.n_heads, config.head_dim), dtype=np.float32
        )
        keys = rng.standard_normal(
            (n_kv, config.n_kv_heads, config.head_dim), dtype=np.float32
        )
        values = rng.standard_normal(
            (n_kv, config.n_kv_heads, config.head_dim), dtype=np.float32
        )
        out = attention.attend(q, keys, values, np.asarray([n_kv - 1]))

        keys_full = attention._expand_kv_heads(keys)
        values_full = attention._expand_kv_heads(values)
        k_heads = np.ascontiguousarray(keys_full.transpose(1, 2, 0))
        v_heads = np.ascontiguousarray(values_full.transpose(1, 0, 2))
        q_heads = np.ascontiguousarray(q.transpose(1, 0, 2))
        logits = (q_heads @ k_heads) * attention._scale
        probs = softmax(logits)
        context = probs @ v_heads
        flat = context.transpose(1, 0, 2).reshape(1, -1)
        reference = flat @ attention.weights.wo.reshape(flat.shape[1], -1)
        _assert_identical(out, reference.astype(np.float32))


class TestIncrementalTailGather:
    def make_cache(self, retrieval_model):
        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers, config.n_kv_heads, config.head_dim, block_size=8
        )
        return retrieval_model.new_cache(pool=pool)

    def append(self, layer, rng, n):
        k = rng.standard_normal(
            (n, layer.n_kv_heads, layer.head_dim), dtype=np.float32
        )
        v = rng.standard_normal(
            (n, layer.n_kv_heads, layer.head_dim), dtype=np.float32
        )
        layer.append(k, v)
        return k, v

    def test_grown_layer_gathers_only_the_tail_and_stays_exact(
        self, retrieval_model, rng, monkeypatch
    ):
        cache = self.make_cache(retrieval_model)
        layer = cache.layers[0]
        k_all, v_all = self.append(layer, rng, 13)
        np.testing.assert_array_equal(layer.keys(), k_all)
        first_k_t, first_v_t = layer.kv_mirrors()
        decoded = []
        real = PagedKVCache._decode_pages
        monkeypatch.setattr(
            PagedKVCache,
            "_decode_pages",
            lambda self, *args: decoded.append(args) or real(self, *args),
        )
        # Grown within the headroom: the new rows land in the same backing
        # arrays and nothing is re-decoded.
        k_tail, v_tail = self.append(layer, rng, 3)
        second_k_t, second_v_t = layer.kv_mirrors()
        assert second_k_t.base is first_k_t.base and second_v_t.base is first_v_t.base
        np.testing.assert_array_equal(layer.keys()[:13], k_all)
        np.testing.assert_array_equal(layer.keys()[13:], k_tail)
        np.testing.assert_array_equal(layer.values()[13:], v_tail)
        # Grown past the headroom: a larger mirror, the valid prefix copied,
        # still nothing re-decoded.
        k_more, v_more = self.append(layer, rng, 20)
        third_k_t, _ = layer.kv_mirrors()
        assert third_k_t.base is not first_k_t.base and third_k_t.shape[2] == 36
        np.testing.assert_array_equal(layer.keys(), np.concatenate([k_all, k_tail, k_more]))
        np.testing.assert_array_equal(layer.values(), np.concatenate([v_all, v_tail, v_more]))
        assert decoded == []

    def test_mirrors_track_appends_and_match_transposes(self, retrieval_model, rng):
        layer = self.make_cache(retrieval_model).layers[0]
        self.append(layer, rng, 10)
        k_t, v_t = layer.kv_mirrors()
        np.testing.assert_array_equal(k_t, layer.keys().transpose(1, 2, 0))
        np.testing.assert_array_equal(v_t, layer.values().transpose(1, 0, 2))
        self.append(layer, rng, 5)
        k_t2, v_t2 = layer.kv_mirrors()
        assert k_t2.shape[2] == 15
        np.testing.assert_array_equal(k_t2, layer.keys().transpose(1, 2, 0))
        np.testing.assert_array_equal(v_t2, layer.values().transpose(1, 0, 2))


class TestVectorizedNgramParity:
    @staticmethod
    def reference(proposer, token_ids, max_tokens):
        """The original pure-Python suffix scan."""
        tokens = list(token_ids)
        n = len(tokens)
        limit = min(max_tokens, proposer.k)
        if limit < 1 or n <= proposer.min_ngram:
            return []
        for size in range(min(proposer.max_ngram, n - 1), proposer.min_ngram - 1, -1):
            suffix = tokens[n - size :]
            for start in range(n - size - 1, -1, -1):
                if tokens[start : start + size] == suffix:
                    return tokens[start + size : start + size + limit]
        return []

    def test_fuzz_against_reference(self, rng):
        for _ in range(300):
            proposer = NgramProposer(
                k=int(rng.integers(1, 6)),
                max_ngram=int(rng.integers(1, 5)) + 1,
                min_ngram=1,
            )
            history = rng.integers(0, 6, size=int(rng.integers(0, 30))).tolist()
            max_tokens = int(rng.integers(0, 8))
            assert proposer.propose(history, max_tokens) == self.reference(
                proposer, history, max_tokens
            ), (proposer.k, proposer.max_ngram, history, max_tokens)

    def test_repeating_loop_is_drafted(self):
        proposer = NgramProposer(k=4, max_ngram=3)
        history = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
        assert proposer.propose(history, 4) == [3, 4, 1, 2]


class TestCausalMasks:
    def test_decode_tail_query_needs_no_mask(self):
        assert _decode_mask(7, 6) is None
        assert _decode_mask(7, 9) is None

    def test_decode_mid_history_query_is_masked(self):
        mask = _decode_mask(5, 2)
        np.testing.assert_array_equal(mask, [[False, False, False, True, True]])

    def test_tile_triangle_masks_keys_after_the_query(self):
        n = _TILE_TRIANGLE.shape[0]
        np.testing.assert_array_equal(
            _TILE_TRIANGLE, np.arange(n)[None, :] > np.arange(n)[:, None]
        )
        assert not _TILE_TRIANGLE.flags.writeable


class TestGqaThroughMirrors:
    """GQA attention over a paged cache reads head-repeated mirrors.

    ``np.repeat`` of the ``(n_kv_heads, d, L)`` mirrors builds the same
    contiguous ``(n_heads, d, L)`` operands the transpose path makes from
    repeated rows, so logits match a dense cache's bit for bit.
    """

    def test_prefill_continuation_and_decode_match_the_transpose_path(
        self, rng, monkeypatch
    ):
        config = ModelConfig(
            name="gqa-unit", vocab_size=50, d_model=32, n_layers=2, n_heads=4,
            n_kv_heads=2, d_ff=64, max_seq_len=64, positional="rope",
            use_rmsnorm=True,
        )
        assert config.gqa_group == 2
        model = Transformer(config, build_random_weights(config, seed=3, scale=0.2))
        pool = BlockPool(config.n_layers, config.n_kv_heads, config.head_dim, block_size=8)
        paged, dense = model.new_cache(pool=pool), model.new_cache()
        tokens = rng.integers(0, config.vocab_size, size=30).tolist()

        def row_major_read(view):
            raise AssertionError("paged attention asked for row-major K/V")

        with monkeypatch.context() as patch:
            patch.setattr(PagedLayerView, "keys", row_major_read)
            patch.setattr(PagedLayerView, "values", row_major_read)
            # Prefill in two chunks: the second attends over cached rows.
            for chunk in (tokens[:13], tokens[13:27]):
                _assert_identical(model.prefill(chunk, paged), model.prefill(chunk, dense))
            for token in tokens[27:]:
                _assert_identical(
                    model.decode_step(token, paged), model.decode_step(token, dense)
                )
        for layer in range(config.n_layers):
            k_t, v_t = paged.layers[layer].kv_mirrors()
            assert k_t.shape[0] == config.n_kv_heads  # one copy per KV head
            np.testing.assert_array_equal(paged.layers[layer].keys(), dense.layers[layer].keys())
