"""End-to-end tests for the Cocktail pipeline (dense and blockwise backends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.core.pipeline import CocktailPipeline
from repro.metrics.f1 import token_f1
from repro.quant.dtypes import BitWidth
from repro.serving.request import GenerationRequest


@pytest.fixture(scope="module")
def pipeline(vocab, tokenizer, retrieval_model):
    return CocktailPipeline(
        retrieval_model,
        tokenizer,
        CocktailConfig(chunk_size=16),
        lexicon=vocab.lexicon,
    )


class TestCocktailPipeline:
    def test_dense_run_answers_correctly(self, pipeline, tiny_samples):
        sample = tiny_samples[0]
        result = pipeline.run(sample.context_words, sample.query_words, max_new_tokens=16)
        assert token_f1(result.answer_text, sample.answer_text) > 60.0
        assert result.n_context_tokens == sample.n_context_tokens
        assert result.plan.context_len == sample.n_context_tokens
        assert result.stopped_by in ("stop_token", "max_tokens", "cache_full")

    def test_plan_contains_three_precision_ladder(self, pipeline, tiny_samples):
        sample = tiny_samples[1]
        result = pipeline.run(sample.context_words, sample.query_words, max_new_tokens=8)
        present = set(result.plan.bit_fractions())
        assert BitWidth.FP16 in present
        assert present <= {BitWidth.INT2, BitWidth.INT4, BitWidth.FP16}
        assert len(result.chunk_bits) == result.plan.details["scores"].shape[0]

    def test_blockwise_matches_dense_backend(self, pipeline, tiny_samples):
        """Algorithm 1 and the fake-quant dense path produce the same answer."""
        sample = tiny_samples[0]
        dense = pipeline.run(sample.context_words, sample.query_words, max_new_tokens=12, mode="dense")
        blockwise = pipeline.run(
            sample.context_words, sample.query_words, max_new_tokens=12, mode="blockwise"
        )
        assert dense.generated_ids == blockwise.generated_ids

    def test_blockwise_cache_compression(self, pipeline, tiny_samples):
        sample = tiny_samples[2]
        result = pipeline.engine.run(
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=4,
                backend="blockwise",
            )
        )
        kv_bytes = result.details["kv_bytes"]
        assert kv_bytes["context_bytes"] < kv_bytes["context_fp16_bytes"]

    def test_invalid_mode_rejected(self, pipeline, tiny_samples):
        sample = tiny_samples[0]
        with pytest.raises(ValueError):
            pipeline.run(sample.context_words, sample.query_words, mode="fused")

    def test_prompt_ids_layout(self, pipeline, tokenizer, tiny_samples):
        sample = tiny_samples[0]
        ids = pipeline.prompt_ids(sample.context_words, sample.query_words)
        assert len(ids) == sample.n_context_tokens + 1 + len(sample.query_words)
        assert ids[sample.n_context_tokens] == tokenizer.sep_id

    def test_build_request_chunking(self, pipeline, tiny_samples):
        sample = tiny_samples[0]
        request = pipeline.build_request(sample.context_words, sample.query_words)
        assert request.context_len == sample.n_context_tokens
        assert request.n_chunks == sample.n_context_tokens // 16
        if sample.n_context_tokens % 16:
            assert request.tail_span is not None
