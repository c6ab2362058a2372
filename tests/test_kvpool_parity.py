"""Equivalence suite: the paged KV pool is a pure storage change.

The acceptance bar of the kvpool refactor: for every registered decode
backend, the engine — serving out of the shared paged block pool (packed
quantized context storage, per-page dequantizing gathers) — produces
outputs **bit-identical** to the dense fake-quant reference decode
(``conftest.reference_generate``) — same generated tokens, same stop
reasons, same plan — while reporting real, lower measured context bytes
for the quantized methods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.evaluation.efficiency import serving_stats_table
from repro.kvpool import BlockPool
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

CHUNK_SIZE = 16

#: Every globally registered backend: Cocktail under its three names plus
#: all of the paper's baselines.
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


class TestPagedDenseParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backend_outputs_bit_identical(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle, backend
    ):
        sample = tiny_samples[0]
        engine = make_engine(vocab, tokenizer, retrieval_model)
        request = GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=6,
            backend=backend,
        )
        paged = engine.run(request)
        token_ids, stopped_by, plan = oracle(engine, request)
        assert paged.token_ids == token_ids
        assert paged.stopped_by == stopped_by
        np.testing.assert_array_equal(paged.plan.token_bits, plan.token_bits)
        # The engine always measures pool bytes.
        assert paged.details["kv_bytes"]["total_bytes"] > 0

    def test_prefill_logits_bit_identical(self, retrieval_model, tokenizer):
        """Raw model-level check: prefill + decode over both cache kinds."""
        model = retrieval_model
        prompt = tokenizer.encode(["the"] * 50 + ["<sep>", "the"])
        dense_cache = model.new_cache()
        pool = BlockPool(
            model.config.n_layers,
            model.config.n_kv_heads,
            model.config.head_dim,
            block_size=16,
        )
        paged_cache = model.new_cache(pool=pool)
        dense_logits = model.prefill(prompt, dense_cache)
        paged_logits = model.prefill(prompt, paged_cache)
        np.testing.assert_array_equal(dense_logits, paged_logits)
        for token in (3, 5, 7):
            np.testing.assert_array_equal(
                model.decode_step(token, dense_cache),
                model.decode_step(token, paged_cache),
            )
        for layer in range(model.config.n_layers):
            np.testing.assert_array_equal(
                dense_cache.layer(layer).keys(), paged_cache.layer(layer).keys()
            )

    def test_mixed_backend_batch_parity_under_concurrency(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """Continuous batching over all backends at once vs the reference."""
        requests = [
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=5,
                backend=backend,
            )
            for sample, backend in zip(
                (tiny_samples * 2)[: len(ALL_BACKENDS)], ALL_BACKENDS
            )
        ]
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=8)
        served = [(r.token_ids, r.stopped_by) for r in engine.run_batch(requests)]
        assert served == [oracle(engine, r)[:2] for r in requests]

    def test_pool_is_drained_after_batch(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Every page goes back to the pool once its request completes."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=4)
        requests = [
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=4,
                backend=backend,
            )
            for sample, backend in zip(tiny_samples, ("dense", "blockwise", "kivi", "fp16"))
        ]
        engine.run_batch(requests)
        # The prefix index retains each request's full-context pages for
        # later warm traffic; everything else went back to the pool.
        assert engine.pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0
        assert engine.pool.peak_allocated_blocks > 0


class TestPrefixCachingParity:
    """Cross-request reuse is a pure storage change, like the pool itself.

    With prefix caching enabled, repeated-context traffic must decode
    bit-identically to the caching-off engine while a warm second request
    measurably adopts pages instead of allocating them.
    """

    #: Backends that serve decode out of pool context pages and therefore
    #: participate in prefix reuse — every built-in backend, blockwise
    #: included (it is Cocktail over the same packed pages).
    REUSE_BACKENDS = (
        "dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant"
    )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_warm_request_bit_identical_on_vs_off(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        sample = tiny_samples[0]

        def repeated(engine):
            return [
                engine.run(
                    GenerationRequest(
                        sample.context_words,
                        sample.query_words,
                        max_new_tokens=6,
                        backend=backend,
                    )
                )
                for _ in range(2)
            ]

        on = repeated(
            make_engine(vocab, tokenizer, retrieval_model, prefix_caching=True)
        )
        off = repeated(
            make_engine(vocab, tokenizer, retrieval_model, prefix_caching=False)
        )
        for got, want in zip(on, off):
            assert got.token_ids == want.token_ids
            assert got.answer_text == want.answer_text
            assert got.stopped_by == want.stopped_by
        if backend in self.REUSE_BACKENDS:
            # The warm second request was served from the prefix index.
            assert on[1].stats.cache_hit_blocks > 0
            assert on[1].stats.cached_tokens > 0
            assert on[1].stats.cached_bytes > 0
            assert on[0].stats.cache_hit_blocks == 0
        assert all(r.stats.cache_hit_blocks == 0 for r in off)

    def test_blockwise_adopts_cocktail_pages(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Blockwise is Cocktail over the same packed pages: after a
        cocktail request it adopts that request's pages and decodes the
        same tokens."""
        sample = tiny_samples[0]
        engine = make_engine(vocab, tokenizer, retrieval_model)
        cocktail, blockwise = (
            engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=6,
                    backend=backend,
                )
            )
            for backend in ("cocktail", "blockwise")
        )
        assert blockwise.stats.cache_hit_blocks > 0
        assert blockwise.token_ids == cocktail.token_ids
        assert blockwise.stopped_by == cocktail.stopped_by

    @pytest.mark.parametrize("backend", ("cocktail", "kivi"))
    def test_context_pages_do_not_depend_on_what_the_index_held(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        """One admission path: the first request of a fresh engine, the same
        request behind unrelated traffic, its warm repeat and the
        caching-off engine all decode over byte-equal context pages."""
        sample = tiny_samples[0]

        def serve(engine):
            """Tokens + the stored bytes of the context pages, read while live."""
            rid = engine.submit(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=6,
                    backend=backend,
                )
            )
            engine.step()
            cache = engine._states[rid].prepared.cache
            bs = engine.pool.block_size
            stored = []
            for page in range(-(-cache.n_context // bs)):
                block = engine.pool.get(cache.table.block_ids[page])
                n_rows = min(bs, cache.n_context - page * bs)
                stored.append(block.fp_k[:, :n_rows].tobytes())
                stored.append(block.fp_v[:, :n_rows].tobytes())
                for runs in (*block.packed_k, *block.packed_v):
                    for run in runs:
                        stored.append(bytes([int(run.bits)]) + run.rows.tobytes())
                        stored.append(run.packed_codes.tobytes() + run.meta.tobytes())
            while engine.has_pending:
                engine.step()
            result = engine.result(rid)
            return result.token_ids, result.stats.cache_hit_blocks, stored

        fresh = make_engine(vocab, tokenizer, retrieval_model)
        first = serve(fresh)
        warm = serve(fresh)
        busy = make_engine(vocab, tokenizer, retrieval_model)
        for other in tiny_samples[1:3]:
            busy.run(
                GenerationRequest(
                    other.context_words, other.query_words, max_new_tokens=2
                )
            )
        assert busy.prefix_cache.n_blocks > 0
        behind_traffic = serve(busy)
        off = serve(make_engine(vocab, tokenizer, retrieval_model, prefix_caching=False))
        assert first[1] == behind_traffic[1] == off[1] == 0 < warm[1]
        for tokens, _, stored in (warm, behind_traffic, off):
            assert tokens == first[0]
            assert stored == first[2]

    def test_warm_request_allocates_fewer_new_blocks(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Acceptance: reuse shows up in the pool, not just the stats."""
        sample = tiny_samples[0]
        engine = make_engine(vocab, tokenizer, retrieval_model)
        pool = engine.pool

        def run_once():
            allocated_before = pool._next_id
            result = engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=4,
                    backend="dense",
                )
            )
            return result, pool._next_id - allocated_before

        cold, cold_new = run_once()
        warm, warm_new = run_once()
        assert warm.token_ids == cold.token_ids
        # Every matched page is a page the warm request never allocated.
        assert warm_new == cold_new - warm.stats.cache_hit_blocks
        assert warm_new < cold_new

    def test_dense_and_cocktail_share_pages(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Both Cocktail execution entries share one fingerprint: a context
        packed via the 'dense' backend warms a 'cocktail' request."""
        sample = tiny_samples[2]
        engine = make_engine(vocab, tokenizer, retrieval_model)
        engine.run(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=3, backend="dense"
            )
        )
        warm = engine.run(
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=3,
                backend="cocktail",
            )
        )
        assert warm.stats.cache_hit_blocks > 0

    def test_serving_table_reports_hits_and_saved_bytes(self):
        table = serving_stats_table(
            n_requests=2,
            methods=("dense", "fp16"),
            max_new_tokens=3,
            repeats=2,
        )
        for row in ("dense", "FP16"):
            assert table.get(row, "hit blocks") > 0
            assert table.get(row, "saved B") > 0


class TestMeasuredBytes:
    def test_quantized_methods_beat_fp16_in_serving_table(self):
        """Acceptance: measured context-cache bytes, quantized < FP16."""
        table = serving_stats_table(
            n_requests=4,
            methods=("dense", "blockwise", "fp16", "kivi"),
            max_new_tokens=4,
        )
        fp16_ctx = table.get("FP16", "ctx KV B")
        assert fp16_ctx > 0
        for row in ("dense", "blockwise", "KIVI"):
            assert table.get(row, "ctx KV B") < fp16_ctx

    def test_paged_kv_bytes_details(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        sample = tiny_samples[1]
        engine = make_engine(vocab, tokenizer, retrieval_model)
        fp16 = engine.run(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=3, backend="fp16"
            )
        )
        cocktail = engine.run(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=3, backend="dense"
            )
        )
        fp16_bytes = fp16.details["kv_bytes"]
        cocktail_bytes = cocktail.details["kv_bytes"]
        assert cocktail_bytes["context_bytes"] < fp16_bytes["context_bytes"]
        assert cocktail_bytes["context_fp16_bytes"] == fp16_bytes["context_fp16_bytes"]
        assert (
            cocktail_bytes["total_bytes"]
            == cocktail_bytes["context_bytes"] + cocktail_bytes["generated_bytes"]
        )
