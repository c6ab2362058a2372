"""Tests for the decode-backend registry and the generic backends."""

from __future__ import annotations

import pytest

from repro.baselines.registry import BASELINE_NAMES, get_baseline
from repro.core.config import CocktailConfig
from repro.core.pipeline import CocktailPipeline
from repro.serving import backends as backends_module
from repro.serving.backends import (
    QuantizedDenseBackend,
    backend_names,
    build_quantization_request,
    create_backend,
    prompt_token_ids,
)
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest


@pytest.fixture()
def engine(vocab, tokenizer, retrieval_model) -> InferenceEngine:
    return InferenceEngine(
        retrieval_model,
        tokenizer,
        CocktailConfig(chunk_size=16),
        lexicon=vocab.lexicon,
    )


class TestRegistry:
    def test_core_and_baseline_names_registered(self):
        names = set(backend_names())
        assert {"dense", "blockwise", "cocktail"} <= names
        assert set(BASELINE_NAMES) <= names

    def test_unknown_backend_raises_keyerror(self, engine):
        with pytest.raises(KeyError, match="unknown decode backend"):
            create_backend("fused", engine)
        with pytest.raises(KeyError, match="unknown decode backend"):
            engine.get_backend("fused")

    def test_resolution_is_case_insensitive(self, engine):
        backend = engine.get_backend("BLOCKWISE")
        assert isinstance(backend, QuantizedDenseBackend)
        assert backend.quantizer is engine.quantizer

    def test_baseline_names_resolve_to_dense_backends(self, engine):
        for name in BASELINE_NAMES:
            backend = engine.get_backend(name)
            assert isinstance(backend, QuantizedDenseBackend)
            assert backend.name == name
            assert backend.quantizer.name == name

    def test_dense_and_cocktail_share_engine_quantizer(self, engine):
        assert engine.get_backend("dense").quantizer is engine.quantizer
        assert engine.get_backend("cocktail").quantizer is engine.quantizer

    def test_engine_local_backend_registration(self, engine):
        engine.add_backend("kivi-2", get_baseline("kivi"))
        assert "kivi-2" in engine.backend_names()
        assert engine.get_backend("kivi-2").quantizer.name == "kivi"
        with pytest.raises(KeyError, match="already registered"):
            engine.add_backend("kivi-2", get_baseline("kivi"))
        # Local registration never leaks into the global registry.
        assert "kivi-2" not in backend_names()

    def test_add_backend_requires_exactly_one_argument(self, engine):
        with pytest.raises(ValueError, match="exactly one"):
            engine.add_backend("broken")
        with pytest.raises(ValueError, match="exactly one"):
            engine.add_backend(
                "broken",
                get_baseline("kivi"),
                backend=QuantizedDenseBackend(engine, get_baseline("kivi")),
            )


    def test_registered_factory_builds_once_on_first_use(
        self, engine, tiny_samples, monkeypatch
    ):
        """A globally registered factory is not called when the engine is
        built; the first lookup (here a submit) builds the backend, and every
        later lookup, in any case, returns that instance."""
        built = []

        def factory(target):
            built.append(QuantizedDenseBackend(target, get_baseline("kivi")))
            return built[-1]

        monkeypatch.setitem(backends_module._BACKEND_FACTORIES, "kivi-lazy", factory)
        fresh = InferenceEngine(
            engine.model, engine.tokenizer, CocktailConfig(chunk_size=16)
        )
        assert built == []
        sample = tiny_samples[0]
        fresh.submit(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=2,
                backend="kivi-lazy",
            )
        )
        assert len(built) == 1
        assert fresh.get_backend("KIVI-LAZY") is built[0]
        assert fresh.get_backend("kivi-lazy") is built[0]
        assert len(built) == 1


class TestBackendExecution:
    def test_fp16_backend_matches_unquantized_generate(
        self, engine, retrieval_model, tokenizer, tiny_samples
    ):
        """The FP16 backend is a no-op quantizer: serving it must reproduce
        plain `Transformer.generate` over the same prompt byte for byte."""
        sample = tiny_samples[0]
        result = engine.run(
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=10,
                backend="fp16",
            )
        )
        prompt = prompt_token_ids(tokenizer, sample.context_words, sample.query_words)
        reference = retrieval_model.generate(
            prompt,
            max_new_tokens=10,
            stop_ids=(tokenizer.eos_id, tokenizer.sep_id),
        )
        assert result.token_ids == reference.token_ids
        assert result.stopped_by == reference.stopped_by
        assert result.plan.method == "fp16"

    def test_result_carries_method_plan(self, engine, tiny_samples):
        sample = tiny_samples[1]
        for backend, method in (("kivi", "kivi"), ("blockwise", "cocktail")):
            result = engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=4,
                    backend=backend,
                )
            )
            assert result.plan.method == method
            assert result.plan.context_len == sample.n_context_tokens

    def test_blockwise_stores_what_cocktail_stores(self, engine, tiny_samples):
        """Blockwise serves Cocktail's packed pages: same measured bytes."""
        sample = tiny_samples[2]
        kv_bytes = {
            backend: engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=4,
                    backend=backend,
                )
            ).details["kv_bytes"]
            for backend in ("cocktail", "blockwise")
        }
        assert kv_bytes["blockwise"] == kv_bytes["cocktail"]
        assert kv_bytes["blockwise"]["context_bytes"] < (
            kv_bytes["blockwise"]["context_fp16_bytes"]
        )


class TestSharedRequestBuilder:
    def test_pipeline_build_request_delegates(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        sample = tiny_samples[0]
        pipeline = CocktailPipeline(
            retrieval_model,
            tokenizer,
            CocktailConfig(chunk_size=16),
            lexicon=vocab.lexicon,
        )
        via_pipeline = pipeline.build_request(sample.context_words, sample.query_words)
        direct = build_quantization_request(
            sample.context_words, sample.query_words, 16
        )
        assert via_pipeline.chunk_spans == direct.chunk_spans
        assert via_pipeline.chunk_texts == direct.chunk_texts
        assert via_pipeline.tail_span == direct.tail_span
        assert via_pipeline.query_text == direct.query_text
        assert via_pipeline.context_len == direct.context_len
